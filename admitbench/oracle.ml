(** Expected outputs of W1–W4, computed by hand from the generated
    tables: rows are read through the table API, never through SQL, and
    the answers follow the Table 3 query shapes written out below.

    Every output tuple of W2–W4 is one patient group; its lineage is the
    patient row plus that subject's itemid-211 chartevents. W1's output
    tuple is the patient row, and its lineage that row alone. *)

open Relational

(** One query's output, keyed by subject. *)
type group = {
  subject : int;
  row : Value.t array;  (** the expected output tuple *)
  lineage : (string * int) list;  (** sorted, duplicate-free *)
}

type answer = group list  (** sorted by subject *)

(** Table 3 adapted to [n] patients (see [Workload.Queries]): W1 is one
    patient; W2–W4 count each subject's itemid-211 events in the open
    subject range [(lo, hi)], keeping groups with more than [min_count]. *)
type shape = Point of int | Range of { lo : int; hi : int; min_count : int }

let shape ~n_patients = function
  | 0 -> Point (n_patients * 186 / 1000 mod n_patients)
  | 1 ->
    let s = n_patients * 489 / 1000 mod n_patients in
    Range { lo = s - 1; hi = s + 1; min_count = 1 }
  | 2 -> Range { lo = n_patients - max 2 (n_patients * 7 / 100); hi = n_patients; min_count = 2 }
  | 3 -> Range { lo = n_patients * 35 / 100; hi = n_patients * 98 / 100; min_count = 1 }
  | k -> invalid_arg (Printf.sprintf "no query W%d" (k + 1))

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(** The four answers over one generated instance. *)
let answers db ~n_patients : answer array =
  let patients = Hashtbl.create 1024 in
  Table.iter
    (fun r ->
      match Row.cells r with
      | [| Value.Int s; sex; dob |] ->
        if Hashtbl.mem patients s then fail "d_patients: subject %d twice" s;
        Hashtbl.replace patients s (Row.tid r, sex, dob)
      | _ -> fail "d_patients: unexpected row shape")
    (Database.table db "d_patients");
  let events = Hashtbl.create 1024 in
  Table.iter
    (fun r ->
      match Row.cells r with
      | [| Value.Int s; Value.Int item; _; _ |] ->
        if item = Mimic.Generate.heart_rate_itemid then
          Hashtbl.replace events s
            (Row.tid r :: Option.value ~default:[] (Hashtbl.find_opt events s))
      | _ -> fail "chartevents: unexpected row shape")
    (Database.table db "chartevents");
  let subjects = Hashtbl.fold (fun s _ acc -> s :: acc) patients [] |> List.sort compare in
  let answer k =
    match shape ~n_patients k with
    | Point s -> (
      match Hashtbl.find_opt patients s with
      | None -> []
      | Some (tid, sex, dob) ->
        [ { subject = s; row = [| Value.Int s; sex; dob |]; lineage = [ ("d_patients", tid) ] } ])
    | Range { lo; hi; min_count } ->
      List.filter_map
        (fun s ->
          if s <= lo || s >= hi then None
          else
            let tid, sex, _ = Hashtbl.find patients s in
            let evs = Option.value ~default:[] (Hashtbl.find_opt events s) in
            let n = List.length evs in
            if n <= min_count then None
            else
              Some
                {
                  subject = s;
                  row = [| Value.Int s; sex; Value.Int n |];
                  lineage =
                    List.sort_uniq compare
                      (("d_patients", tid) :: List.map (fun t -> ("chartevents", t)) evs);
                })
        subjects
  in
  Array.init 4 answer

let row_key (r : Value.t array) = String.concat "|" (Array.to_list (Array.map Value.to_sql r))

let expected_rows (a : answer) = List.sort compare (List.map (fun g -> row_key g.row) a)

(** Compare a query result's tuples with the answer, as multisets. *)
let check_result ~what (a : answer) (res : Executor.result) =
  let got =
    List.sort compare
      (List.map (fun (r : Executor.row_out) -> row_key r.Executor.values) res.Executor.out_rows)
  in
  if got <> expected_rows a then
    fail "%s: %d result tuples differ from the %d expected" what (List.length got) (List.length a)

(** Compare a lineage-annotated run's per-tuple lineage with the answer. *)
let check_lineage_run ~what (a : answer) (res : Executor.result) =
  check_result ~what a res;
  let expected = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace expected (row_key g.row) g.lineage) a;
  List.iter
    (fun (r : Executor.row_out) ->
      let got = List.sort compare r.Executor.lineage in
      if got <> List.sort_uniq compare got then fail "%s: lineage with repeated entries" what;
      if got <> Hashtbl.find expected (row_key r.Executor.values) then
        fail "%s: lineage of tuple %s differs (%d entries, %d expected)" what
          (row_key r.Executor.values) (List.length got)
          (List.length (Hashtbl.find expected (row_key r.Executor.values))))
    res.Executor.out_rows

(** Compare [Usage_log.provenance_rows] output — (otid, irid, itid)
    triples — with the answer's lineage, output tuple by output tuple. *)
let check_provenance_rows ~what (a : answer) (rows : Value.t array list) =
  let by_otid = Hashtbl.create 64 in
  List.iter
    (function
      | [| Value.Int otid; Value.Str irid; Value.Int itid |] ->
        Hashtbl.replace by_otid otid
          ((irid, itid) :: Option.value ~default:[] (Hashtbl.find_opt by_otid otid))
      | _ -> fail "%s: provenance row of unexpected shape" what)
    rows;
  let got =
    Hashtbl.fold (fun _ l acc -> List.sort compare l :: acc) by_otid [] |> List.sort compare
  in
  let want = List.map (fun g -> g.lineage) a |> List.sort compare in
  if got <> want then
    fail "%s: provenance rows give %d tuple lineages (%d rows), expected %d" what
      (List.length got) (List.length rows) (List.length want)

(** The committed usage log against the submissions that wrote it.
    [stream.(ts - 1)] is the (uid, query index) of the submission at
    clock tick [ts]. Every committed [users] row must name that
    submission's uid, and the committed [provenance] rows of one (ts,
    otid) must lie inside the lineage of one output tuple of that
    submission's answer. *)
let check_log ~what db (answers : answer array) (stream : (int * int) array) =
  let tick ts =
    if ts < 1 || ts > Array.length stream then
      fail "%s: log row at tick %d of %d" what ts (Array.length stream);
    stream.(ts - 1)
  in
  Table.iter
    (fun r ->
      match Row.cells r with
      | [| Value.Int ts; Value.Int uid |] ->
        if uid <> fst (tick ts) then fail "%s: users row (%d, %d) names the wrong uid" what ts uid
      | _ -> fail "%s: users row of unexpected shape" what)
    (Database.table db "users");
  (* Per query: lineage entry -> the subject of the output tuple it
     belongs to. *)
  let subject_of =
    Array.map
      (fun a ->
        let h = Hashtbl.create 1024 in
        List.iter (fun g -> List.iter (fun e -> Hashtbl.replace h e g.subject) g.lineage) a;
        h)
      answers
  in
  (* (ts, otid) -> the subject its first row belongs to *)
  let owner = Hashtbl.create 64 in
  Table.iter
    (fun r ->
      match Row.cells r with
      | [| Value.Int ts; Value.Int otid; Value.Str irid; Value.Int itid |] -> (
        let _, q = tick ts in
        match Hashtbl.find_opt subject_of.(q) (irid, itid) with
        | None ->
          fail "%s: provenance row (%d, %d, %s, %d) is in no lineage of W%d" what ts otid irid
            itid (q + 1)
        | Some s -> (
          match Hashtbl.find_opt owner (ts, otid) with
          | None -> Hashtbl.replace owner (ts, otid) s
          | Some s' when s' = s -> ()
          | Some _ -> fail "%s: provenance rows of (%d, %d) span two output tuples" what ts otid))
      | _ -> fail "%s: provenance row of unexpected shape" what)
    (Database.table db "provenance")
