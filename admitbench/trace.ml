(** In-memory span recorder for the traced run.

    A span is a named interval on the monotonic clock with the span that
    caused it. Spans are recorded by the benchmark around its calls into
    the program's public functions; the phase split of one submission,
    which the engine reports as durations in its [Stats.t], is recorded
    as [derived] child spans laid end to end inside the submit call, in
    the engine's phase order (tracking and evaluation interleave in
    reality, so only their durations are meaningful). Counts observed at
    a span (rows returned, words allocated, counter deltas) are attached
    to it. Everything stays in memory until {!write}. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  query : string;  (** ["w1"] .. ["w4"], or [""] *)
  t0 : float;  (** seconds on the monotonic clock *)
  t1 : float;
  derived : bool;
}

type count = { at : int; key : string; value : float }

type t = {
  mutable spans : span list;  (** newest first *)
  mutable counts : count list;
  mutable next : int;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { spans = []; counts = []; next = 0 }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(** Record a finished span; [id] defaults to a fresh one (take it
    from {!fresh_id} first when children must name their parent before
    it ends). *)
let add t ?id ?(derived = false) ~parent ~name ?(query = "") t0 t1 =
  let id = match id with Some id -> id | None -> fresh_id t in
  t.spans <- { id; parent; name; query; t0; t1; derived } :: t.spans;
  id

(** [with_span t ~parent ~name ~query f] times [f id] as span [id]. *)
let with_span t ~parent ~name ?(query = "") f =
  let id = fresh_id t in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  t.spans <- { id; parent; name; query; t0; t1; derived = false } :: t.spans;
  r

let count t ~at key value = t.counts <- { at; key; value } :: t.counts

let duration s = s.t1 -. s.t0

let spans t = List.rev t.spans

(** Durations, in seconds, of the spans called [name] for [query]. *)
let durations t ~name ~query =
  List.filter_map
    (fun s -> if s.name = name && s.query = query then Some (duration s) else None)
    t.spans

(** Values of the count [key] attached anywhere. *)
let counts t key =
  List.filter_map (fun c -> if c.key = key then Some c.value else None) t.counts

(** Values of the count [key] attached to spans of [query]. *)
let counts_for t key ~query =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  List.filter_map
    (fun c ->
      if c.key <> key then None
      else
        match Hashtbl.find_opt by_id c.at with
        | Some s when s.query = query -> Some c.value
        | _ -> None)
    t.counts

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** One JSON object per line: every span (with its counts), oldest
    first, times relative to the first span's start. *)
let write t path =
  let all = spans t in
  let origin = match all with [] -> 0. | s :: _ -> s.t0 in
  let counts_of = Hashtbl.create 1024 in
  List.iter (fun c -> Hashtbl.add counts_of c.at c) t.counts;
  let oc = open_out path in
  List.iter
    (fun s ->
      let cs =
        Hashtbl.find_all counts_of s.id
        |> List.rev_map (fun c -> Printf.sprintf "%s: %.17g" (json_string c.key) c.value)
      in
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %s, \"query\": %s, \"start_s\": %.9f, \
         \"end_s\": %.9f, \"derived\": %b, \"counts\": {%s}}\n"
        s.id s.parent (json_string s.name) (json_string s.query) (s.t0 -. origin)
        (s.t1 -. origin) s.derived (String.concat ", " cs))
    all;
  close_out oc
