(** End-to-end admission benchmark on the paper's §5 workload.

    The synthetic MIMIC instance (1 000 patients) under the violation-free
    P1–P6 parameters and [Engine.default_config]; one caller submits
    W1, W2, W3, W4, W1, ... and waits for each reply (a closed loop with
    one request outstanding). The run is a sequence of sessions: each
    sets up a fresh instance and engine, submits a warm-up cycle of
    W1–W4 and a measured one, and checks everything it can against
    answers computed by hand ({!Oracle}). Every session replays the same
    stream from the same state, so a run's medians do not depend on how
    many sessions fit into its time.

    Workloads:
    - [paper-subject]: uid 1 through [Engine.submit], in process;
    - [paper-bystander]: the same stream as uid 0;
    - [server-durable]: uid 1 over one TCP connection to an in-process
      [Server.Tcp] server on a persistence directory.

    [--trace 0] prints the end-to-end metrics. [--trace 1] runs traced
    sessions (spans around every public call, see {!Trace}) next to
    untraced ones, derives the per-layer metrics from the spans, and
    writes the spans out. The last line of standard output is one JSON
    object: [correct], [attempted], [failed], [metrics]. *)

open Relational
open Datalawyer
module Protocol = Server.Protocol

(* Workload definition -------------------------------------------------- *)

type workload = Subject | Bystander | Server_durable

let workloads =
  [ ("paper-subject", Subject); ("paper-bystander", Bystander); ("server-durable", Server_durable) ]

let uid_of = function Subject | Server_durable -> 1 | Bystander -> 0

(* Rounds (cycles of W1–W4) per session. The warm-up round fills the
   plan caches and the retained log; it is checked but not measured.
   The measured round then finds the same state in every session, so
   its samples gather around one value instead of one per log size. *)
let warmup_rounds = 1
let measured_rounds = 1

let n_patients = Mimic.Generate.default_config.Mimic.Generate.n_patients

(* Table 2 with violation-free thresholds (the §4.2.1 common case): over
   any stream of W1–W4 no policy fires, whatever the seed. *)
let params =
  {
    Workload.Policies.p1_window = 50;
    p1_max_users = 10;
    p3_max_output = 10_000;
    p4_min_inputs = 1;
    p5_window = 500;
    p5_max_fraction = 0.9;
    p6_window = 100;
    p6_max_uses = 500;
  }

let queries = Array.of_list (Workload.Queries.all ~n_patients)
let n_queries = Array.length queries
let qname k = Printf.sprintf "w%d" (k + 1)
let log_relations = [ "users"; "schema"; "provenance" ]

(* Clock and small statistics ------------------------------------------- *)

let now = Trace.now

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let mean = function [] -> 0. | l -> sum l /. float_of_int (List.length l)

(* Files ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Minimal blocking protocol client ------------------------------------- *)

type client = { fd : Unix.file_descr; decoder : Protocol.Decoder.t; buf : Bytes.t }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let rec recv c =
  match Protocol.Decoder.next c.decoder with
  | `Frame payload -> (
    match Protocol.parse_response payload with
    | Ok r -> r
    | Error (_, m) -> failwith ("bad reply: " ^ m))
  | `Error code -> failwith ("framing error: " ^ code)
  | `Awaiting ->
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then failwith "server closed the connection";
    Protocol.Decoder.feed c.decoder (Bytes.sub_string c.buf 0 n);
    recv c

let rpc c req =
  write_all c.fd (Protocol.encode_frame (Protocol.render_request req));
  recv c

let connect port ~uid =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c = { fd; decoder = Protocol.Decoder.create (); buf = Bytes.create 65536 } in
  (match rpc c (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | r -> failwith ("HELLO: " ^ Protocol.render_response r));
  (match rpc c (Protocol.Auth uid) with
  | Protocol.Auth_ok _ -> ()
  | r -> failwith ("AUTH: " ^ Protocol.render_response r));
  c

(* Sessions --------------------------------------------------------------- *)

(* How a session reaches the engine. [Replay] is the in-process twin of
   [Tcp]: the same stream on an engine with the same persistence
   settings, with the group-commit flush the admission pipeline forces
   after each batch done by hand. *)
type kind = Direct of bool | Replay of bool | Tcp  (** the bool: traced *)

let traced = function Direct t | Replay t -> t | Tcp -> false
let persisted = function Replay _ | Tcp -> true | Direct _ -> false

type env = {
  db : Database.t;
  engine : Engine.t;
  dir : string option;
  conn : (Server.Tcp.t * client) option;
}

type run = {
  workload : workload;
  seed : int;
  warmup : int;
  rounds : int;  (** measured rounds per session *)
  out_dir : string;
  tr : Trace.t;
  mutable answers : Oracle.answer array option;
  mutable lineage_checked : bool;
  mutable sessions : int;
  mutable attempted : int;
  mutable failed : int;
  mutable accepted : int;
  mutable problems : string list;  (** failed output checks *)
  mutable setups : float list;  (** seconds, per session *)
  mutable domains : int;
  mutable batches : int * int * int;
      (** pool batches, fast and serial admission batches, over all sessions *)
  lat : (kind * int, float list) Hashtbl.t;  (** seconds, per (kind, query) *)
}

let problem r fmt =
  Printf.ksprintf
    (fun s ->
      if List.length r.problems < 20 then r.problems <- s :: r.problems;
      Printf.eprintf "check failed: %s\n%!" s)
    fmt

let instance r =
  Mimic.Generate.database ~config:{ Mimic.Generate.default_config with seed = r.seed } ()

let setup r kind =
  let dir =
    if persisted kind then begin
      let d =
        Filename.concat r.out_dir (Printf.sprintf "persist-%d-%d" (Unix.getpid ()) r.sessions)
      in
      rm_rf d;
      mkdir_p d;
      Some d
    end
    else None
  in
  let db = instance r in
  let engine =
    match dir with
    | None -> Engine.create ~config:Engine.default_config db
    | Some d ->
      Engine.create ~config:Engine.default_config ~persist_dir:d
        ~persist_fsync:Persistence.Store.Never db
  in
  List.iter
    (fun (p : Workload.Policies.t) ->
      ignore (Engine.add_policy engine ~name:p.Workload.Policies.name p.Workload.Policies.sql))
    (Workload.Policies.all ~params ~n_patients ());
  ignore (Engine.plan engine);
  let conn =
    match kind with
    | Tcp ->
      let srv =
        Server.Tcp.start ~config:{ Server.Tcp.default_config with Server.Tcp.port = 0 } engine
      in
      Some (srv, connect (Server.Tcp.port srv) ~uid:(uid_of r.workload))
    | Direct _ | Replay _ -> None
  in
  { db; engine; dir; conn }

let record r kind q dt =
  let key = (kind, q) in
  Hashtbl.replace r.lat key (dt :: Option.value ~default:[] (Hashtbl.find_opt r.lat key))

(* An accepted answer is checked outside the timed interval. *)
let check_answer r ~what answers q (res : Executor.result) =
  try Oracle.check_result ~what answers.(q) res
  with Oracle.Mismatch m ->
    r.failed <- r.failed + 1;
    problem r "%s" m

let verdict r ~what = function
  | Ok (Engine.Accepted (res, _)) ->
    r.accepted <- r.accepted + 1;
    Some res
  | Ok (Engine.Rejected (msgs, _)) ->
    r.failed <- r.failed + 1;
    problem r "%s rejected: %s" what (String.concat "; " msgs);
    None
  | Error e ->
    r.failed <- r.failed + 1;
    problem r "%s raised %s" what (Printexc.to_string e);
    None

let flush env = Option.iter (Persistence.Store.flush ~sync:true) (Engine.persist_store env.engine)

(* The engine's phase split, in the engine's order. *)
let phases (st : Stats.t) =
  [
    ("usage_log.track", st.Stats.log_track);
    ("engine.eval", st.Stats.policy_eval);
    ("witness.mark", st.Stats.compact_mark);
    ("witness.delete", st.Stats.compact_delete);
    ("witness.insert", st.Stats.compact_insert);
    ("persist.commit", st.Stats.persist);
    ("engine.exec", st.Stats.query_exec);
  ]

(* One traced submission: the parse and the admission as spans of their
   own, the engine's phase split as derived children of the admission
   span, the group-commit flush on a persisted engine, and whatever the
   spans leave uncovered as [engine.unattributed]. Returns the
   submission's wall time and outcome. *)
let traced_submit r env ~round ~uid q =
  let tr = r.tr and query = qname q in
  let sql = queries.(q).Workload.Queries.sql in
  let sub = Trace.fresh_id tr in
  let words0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let vec0 = Engine.vector_stats env.engine in
  let t0 = now () in
  let outcome =
    try
      let ast = Parser.query sql in
      let s0 = now () in
      let o = Engine.submit_ast env.engine ~uid ast in
      let s1 = now () in
      let s2 = if env.dir <> None then (flush env; now ()) else s1 in
      ignore (Trace.add tr ~parent:sub ~name:"relational.parse" ~query t0 s0);
      let submit = Trace.add tr ~parent:sub ~name:"engine.submit" ~query s0 s1 in
      if env.dir <> None then ignore (Trace.add tr ~parent:sub ~name:"persist.flush" ~query s1 s2);
      Ok (submit, s0, s2 -. s1, o)
    with e -> Error e
  in
  let t1 = now () in
  let words1 = Gc.minor_words () and major1 = (Gc.quick_stat ()).Gc.major_collections in
  let vec1 = Engine.vector_stats env.engine in
  ignore (Trace.add tr ~id:sub ~parent:round ~name:"submission" ~query t0 t1);
  let count key v = Trace.count tr ~at:sub key v in
  count "gc.minor_words" (words1 -. words0);
  count "gc.major_collections" (float_of_int (major1 - major0));
  count "relational.vec_batches" (float_of_int (vec1.Engine.vec_batches - vec0.Engine.vec_batches));
  count "relational.vec_fallbacks"
    (float_of_int (vec1.Engine.vec_fallbacks - vec0.Engine.vec_fallbacks));
  (match outcome with
  | Error _ -> ()
  | Ok (submit, s0, flush_s, o) ->
    let st = Engine.stats_of o in
    count "engine.policy_calls" (float_of_int st.Stats.policy_calls);
    let cursor =
      List.fold_left
        (fun c (name, d) ->
          ignore (Trace.add tr ~derived:true ~parent:submit ~name ~query c (c +. d));
          c +. d)
        s0 (phases st)
    in
    (* Everything of the admission call that no engine timer covers:
       the increment rollback and savepoint work, for one. The parse
       and the flush spans tile the rest of the submission. *)
    let rest = t1 -. cursor -. flush_s in
    ignore
      (Trace.add tr ~derived:true ~parent:submit ~name:"engine.unattributed" ~query cursor
         (cursor +. rest)));
  (t1 -. t0, Result.map (fun (_, _, _, o) -> o) outcome)

(* The standalone calls of a traced round: the query alone (the paper's
   unmodified bar) and the provenance generator alone. *)
let traced_standalone r env ~round q =
  let tr = r.tr and query = qname q in
  let ast = Parser.query queries.(q).Workload.Queries.sql in
  Trace.with_span tr ~parent:round ~name:"relational.query" ~query (fun _ ->
      ignore (Database.query_ast env.db ast));
  Trace.with_span tr ~parent:round ~name:"usage_log.provenance_rows" ~query (fun id ->
      let rows = Usage_log.provenance_rows env.db ast in
      Trace.count tr ~at:id "usage_log.lineage_rows" (float_of_int (List.length rows)))

let submit_once r env kind ~measured ~round ~uid ~answers q =
  let what = Printf.sprintf "session %d W%d" r.sessions (q + 1) in
  let sql = queries.(q).Workload.Queries.sql in
  r.attempted <- r.attempted + 1;
  match kind, env.conn with
  | Tcp, Some (_, c) -> (
    let t0 = now () in
    let reply = try Ok (rpc c (Protocol.Submit sql)) with e -> Error e in
    let dt = now () -. t0 in
    match reply with
    | Ok (Protocol.Accepted { rows; _ }) ->
      r.accepted <- r.accepted + 1;
      if measured then record r kind q dt;
      let want = List.length answers.(q) in
      if rows <> want then begin
        r.failed <- r.failed + 1;
        problem r "%s: %d rows over the wire, %d expected" what rows want
      end
    | Ok other ->
      r.failed <- r.failed + 1;
      problem r "%s: %s" what (Protocol.render_response other)
    | Error e ->
      r.failed <- r.failed + 1;
      problem r "%s raised %s" what (Printexc.to_string e))
  | Tcp, None -> assert false
  | (Direct tr | Replay tr), _ ->
    let tr = tr && measured in
    let dt, outcome =
      if tr then traced_submit r env ~round ~uid q
      else
        let t0 = now () in
        let o =
          try
            let o = Engine.submit env.engine ~uid sql in
            if env.dir <> None then flush env;
            Ok o
          with e -> Error e
        in
        (now () -. t0, o)
    in
    (match verdict r ~what outcome with
    | Some res ->
      if measured then record r kind q dt;
      check_answer r ~what answers q res
    | None -> ());
    if tr then traced_standalone r env ~round q

(* Engine-lifetime counters, read around a traced session's rounds. *)
let engine_counters env =
  let hits, misses = Engine.plan_cache_stats env.engine in
  let rel = Engine.relevance_stats env.engine in
  let sh, sm = Engine.shared_scan_stats env.engine in
  let d = Engine.delta_stats env.engine in
  [
    ("engine.plan_cache_hits", hits);
    ("engine.plan_cache_misses", misses);
    ("engine.relevance_checks", rel.Engine.rel_checks);
    ("engine.relevance_skips", rel.Engine.rel_skips);
    ("relational.shared_scan_hits", sh);
    ("relational.shared_scan_misses", sm);
    ("incremental.delta_evals", d.Engine.delta_evals);
    ("incremental.full_evals", d.Engine.full_evals);
  ]

let store_counters env =
  match Engine.persist_store env.engine with
  | None -> []
  | Some s ->
    [
      ("persist.fsyncs", Persistence.Store.fsyncs s);
      ("persist.checkpoints", Persistence.Store.generation s);
      ("persist.wal_records", Persistence.Store.wal_records s);
      ("persist.disk_bytes", Persistence.Store.disk_bytes s);
    ]

(* The usage log and clock as the engine holds them. *)
let log_state db =
  ( Usage_log.current_time db,
    List.map
      (fun rel ->
        let key row = Oracle.row_key (Row.cells row) in
        let rows = Table.fold (fun acc row -> key row :: acc) [] (Database.table db rel) in
        (rel, List.sort compare rows))
      log_relations )

(* Reopen the persistence directory on a freshly generated instance: the
   recovered log and clock must equal the state at shutdown. *)
let check_durability r env ~span =
  let dir = Option.get env.dir in
  let at_stop = log_state env.db in
  let db = instance r in
  let t0 = now () in
  let engine =
    Engine.create ~config:Engine.default_config ~persist_dir:dir
      ~persist_fsync:Persistence.Store.Never db
  in
  let t1 = now () in
  Option.iter (fun parent -> ignore (Trace.add r.tr ~parent ~name:"persist.recovery" t0 t1)) span;
  let recovered = log_state db in
  let names e = List.sort compare (List.map (fun p -> p.Policy.name) (Engine.policies e)) in
  Engine.close engine;
  if fst recovered <> fst at_stop then
    problem r "session %d: recovered clock %d, %d at shutdown" r.sessions (fst recovered)
      (fst at_stop);
  List.iter2
    (fun (rel, a) (_, b) ->
      if a <> b then
        problem r "session %d: recovered %s has %d rows, %d at shutdown" r.sessions rel
          (List.length b) (List.length a))
    (snd at_stop) (snd recovered);
  if names engine <> names env.engine then
    problem r "session %d: recovered policy set differs" r.sessions

let check_lineage r env answers =
  Array.iteri
    (fun q (w : Workload.Queries.t) ->
      let what = Printf.sprintf "lineage of W%d" (q + 1) in
      let ast = Parser.query w.Workload.Queries.sql in
      try
        Oracle.check_lineage_run ~what answers.(q)
          (Database.query_ast ~opts:{ Executor.lineage = true; track_src = false } env.db ast);
        Oracle.check_provenance_rows ~what answers.(q) (Usage_log.provenance_rows env.db ast)
      with Oracle.Mismatch m -> problem r "%s" m)
    queries

let run_session r kind =
  Gc.compact ();
  let t0 = now () in
  let env = setup r kind in
  r.setups <- (now () -. t0) :: r.setups;
  let answers =
    match r.answers with
    | Some a -> a
    | None ->
      let a = Oracle.answers env.db ~n_patients in
      r.answers <- Some a;
      a
  in
  let uid = uid_of r.workload in
  let tr = r.tr and traced = traced kind in
  let session = Trace.fresh_id tr in
  let round_of ~measured =
    let round = Trace.fresh_id tr in
    let r0 = now () in
    for q = 0 to n_queries - 1 do
      submit_once r env kind ~measured ~round ~uid ~answers q
    done;
    if traced && measured then
      ignore (Trace.add tr ~id:round ~parent:session ~name:"round" r0 (now ()))
  in
  for _ = 1 to r.warmup do
    round_of ~measured:false
  done;
  (* Read only between a traced session's own calls: a server's
     engine belongs to its admission thread. *)
  let before = if traced then engine_counters env else [] in
  let store_before = if traced then store_counters env else [] in
  let s0 = now () in
  for _ = 1 to r.rounds do
    round_of ~measured:true
  done;
  let s1 = now () in
  if traced then begin
    ignore (Trace.add tr ~id:session ~parent:(-1) ~name:"session" s0 s1);
    let count key v = Trace.count tr ~at:session key (float_of_int v) in
    List.iter2 (fun (k, a) (_, b) -> count k (b - a)) before (engine_counters env);
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k store_before with
        | Some v0 when k = "persist.fsyncs" || k = "persist.checkpoints" -> count k (v - v0)
        | _ -> count k v)
      (store_counters env);
    List.iter
      (fun rel -> count ("witness.log_rows." ^ rel) (Engine.log_size env.engine rel))
      log_relations
  end;
  (match env.conn with
  | Some (srv, c) ->
    (try ignore (rpc c Protocol.Quit) with _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Server.Tcp.stop ~close_engine:true srv
  | None -> Engine.close env.engine);
  let domains, pool, _ = Engine.parallel_stats env.engine in
  let b = Engine.batch_stats env.engine and p, f, s = r.batches in
  r.domains <- domains;
  r.batches <- (p + pool, f + b.Engine.fast_batches, s + b.Engine.serial_batches);
  (* Output checks on the state the session left. *)
  let n = (r.warmup + r.rounds) * n_queries in
  let clock = Usage_log.current_time env.db in
  if clock <> n then problem r "session %d: clock %d after %d submissions" r.sessions clock n;
  (try
     Oracle.check_log ~what:(Printf.sprintf "session %d" r.sessions) env.db answers
       (Array.init n (fun i -> (uid, i mod n_queries)))
   with Oracle.Mismatch m -> problem r "%s" m);
  if not r.lineage_checked then begin
    check_lineage r env answers;
    r.lineage_checked <- true
  end;
  if env.dir <> None then begin
    check_durability r env ~span:(if traced then Some session else None);
    rm_rf (Option.get env.dir)
  end;
  r.sessions <- r.sessions + 1

(* Metrics ---------------------------------------------------------------- *)

let ms = ( *. ) 1000.

let latencies r kind q = Option.value ~default:[] (Hashtbl.find_opt r.lat (kind, q))

(* The end-to-end metrics, with unit and sample count, in
   BENCHMARK.json's order. *)
let end_to_end r kind =
  let all = List.concat (List.init n_queries (latencies r kind)) in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let top_heap = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes in
  [
    ("setup_s", median r.setups, "s", List.length r.setups);
    ("subs_per_s", float_of_int (List.length all) /. sum all, "1/s", List.length all);
  ]
  @ List.init n_queries (fun q ->
        let l = latencies r kind q in
        (Printf.sprintf "%s_p50_ms" (qname q), ms (median l), "ms", List.length l))
  @ [ ("heap_peak_mb", top_heap /. 1e6, "MB", 1) ]

(* Every per-layer metric, derived from the spans, with its sample
   count. Phase times are means per submission, so that for each query
   the phases plus [engine.unattributed_ms] add up to [engine.submit_ms];
   the tracing and server overheads are differences of medians. The
   order is BENCHMARK.json's. *)
let per_layer r ~untraced =
  let tr = r.tr in
  let subs q = List.length (Trace.durations tr ~name:"submission" ~query:(qname q)) in
  let spans names q =
    let n = subs q in
    let total =
      sum (List.concat_map (fun name -> Trace.durations tr ~name ~query:(qname q)) names)
    in
    ((if n = 0 then 0. else ms total /. float_of_int n), n)
  in
  let rounds = List.length (Trace.durations tr ~name:"round" ~query:"") in
  let per_round key =
    ((if rounds = 0 then 0. else sum (Trace.counts tr key) /. float_of_int rounds), rounds)
  in
  let at_session_end key = (mean (Trace.counts tr key), List.length (Trace.counts tr key)) in
  let per_sub_count key ~scale q =
    (mean (Trace.counts_for tr key ~query:(qname q)) /. scale, subs q)
  in
  let median_diff a b q =
    match (a q, b q) with
    | [], _ | _, [] -> (0., 0)
    | a, b -> (ms (median a -. median b), List.length a)
  in
  let traced q = Trace.durations tr ~name:"submission" ~query:(qname q) in
  let recovery () =
    let d = Trace.durations tr ~name:"persist.recovery" ~query:"" in
    (ms (mean d), List.length d)
  in
  let each_query base unit f =
    List.init n_queries (fun q -> (base ^ "." ^ qname q, unit, fun () -> f q))
  in
  let one name unit f = [ (name, unit, f) ] in
  let rate name = one name "1/round" (fun () -> per_round name) in
  let state name unit = one name unit (fun () -> at_session_end name) in
  List.concat
    [
      each_query "relational.parse_ms" "ms" (spans [ "relational.parse" ]);
      each_query "relational.query_ms" "ms" (spans [ "relational.query" ]);
      rate "relational.vec_batches";
      rate "relational.vec_fallbacks";
      rate "relational.shared_scan_hits";
      rate "relational.shared_scan_misses";
      each_query "usage_log.track_ms" "ms" (spans [ "usage_log.track" ]);
      each_query "usage_log.provenance_rows_ms" "ms" (spans [ "usage_log.provenance_rows" ]);
      each_query "usage_log.lineage_rows" "rows" (per_sub_count "usage_log.lineage_rows" ~scale:1.);
      each_query "engine.submit_ms" "ms" (spans [ "submission" ]);
      each_query "engine.eval_ms" "ms" (spans [ "engine.eval" ]);
      each_query "engine.exec_ms" "ms" (spans [ "engine.exec" ]);
      each_query "engine.unattributed_ms" "ms" (spans [ "engine.unattributed" ]);
      rate "engine.policy_calls";
      rate "engine.relevance_checks";
      rate "engine.relevance_skips";
      rate "engine.plan_cache_hits";
      rate "engine.plan_cache_misses";
      each_query "witness.mark_ms" "ms" (spans [ "witness.mark" ]);
      each_query "witness.delete_ms" "ms" (spans [ "witness.delete" ]);
      each_query "witness.insert_ms" "ms" (spans [ "witness.insert" ]);
      state "witness.log_rows.users" "rows";
      state "witness.log_rows.schema" "rows";
      state "witness.log_rows.provenance" "rows";
      rate "incremental.delta_evals";
      rate "incremental.full_evals";
      each_query "persist.commit_ms" "ms" (spans [ "persist.commit"; "persist.flush" ]);
      state "persist.disk_bytes" "B";
      rate "persist.fsyncs";
      state "persist.wal_records" "count";
      rate "persist.checkpoints";
      one "persist.recovery_ms" "ms" recovery;
      each_query "server.rtt_overhead_ms" "ms"
        (median_diff (latencies r Tcp) (latencies r untraced));
      each_query "gc.minor_mwords" "Mwords" (per_sub_count "gc.minor_words" ~scale:1e6);
      rate "gc.major_collections";
      each_query "trace.overhead_ms" "ms" (median_diff traced (latencies r untraced));
    ]
  |> List.map (fun (name, unit, f) ->
         let v, n = f () in
         (name, v, unit, n))

(* Main -------------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let short = ref false and rev = ref "unknown" and out_dir = ref "admitbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " paper-subject | paper-bystander | server-durable");
      ("--seed", Arg.Set_int seed, " instance seed");
      ("--seconds", Arg.Set_float seconds, " measuring time; whole sessions run until it is spent");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics");
      ("--short", Arg.Set short, " one session of one round, every check");
      ("--rev", Arg.Set_string rev, " source revision to record");
      ("--out", Arg.Set_string out_dir, " directory for spans and persistence files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  let knob kv = String.length kv > 3 && String.sub kv 0 3 = "DL_" in
  (match List.filter knob (Array.to_list (Unix.environment ())) with
  | [] -> ()
  | set ->
    die "refusing to run with %s set: the benchmark measures the shipped defaults"
      (String.concat ", " set));
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p !out_dir;
  let cycle =
    match w, !trace = 1 with
    | (Subject | Bystander), false -> [ Direct false ]
    | (Subject | Bystander), true -> [ Direct true; Direct false ]
    | Server_durable, false -> [ Tcp ]
    | Server_durable, true -> [ Tcp; Replay true; Replay false ]
  in
  let r =
    {
      workload = w;
      seed = !seed;
      warmup = (if !short then 0 else warmup_rounds);
      rounds = measured_rounds;
      out_dir = !out_dir;
      tr = Trace.create ();
      answers = None;
      lineage_checked = false;
      sessions = 0;
      attempted = 0;
      failed = 0;
      accepted = 0;
      problems = [];
      setups = [];
      domains = 0;
      batches = (0, 0, 0);
      lat = Hashtbl.create 16;
    }
  in
  Printf.printf "# admitbench workload=%s seed=%d seconds=%g trace=%d short=%b\n" !workload !seed
    !seconds !trace !short;
  Printf.printf "# host cores=%d ocaml=%s rev=%s word_size=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !rev Sys.word_size;
  let start = now () in
  let rec loop () =
    List.iter (run_session r) cycle;
    if (not !short) && now () -. start < !seconds then loop ()
  in
  loop ();
  let elapsed = now () -. start in
  Printf.printf "# %d sessions of %d warm-up + %d measured rounds in %.1f s\n" r.sessions
    r.warmup r.rounds elapsed;
  Printf.printf "# %d submissions, %d accepted, %d failed\n" r.attempted r.accepted r.failed;
  let pool, fast, serial = r.batches in
  Printf.printf "# engine paths: domains=%d pool_batches=%d admission_batches fast=%d serial=%d\n"
    r.domains pool fast serial;
  let measured, untraced =
    match w with
    | Server_durable -> (Tcp, Replay false)
    | Subject | Bystander -> (Direct false, Direct false)
  in
  let print =
    List.iter (fun (name, v, unit, n) -> Printf.printf "%-34s %14.4f %-8s n=%d\n" name v unit n)
  in
  let e2e = end_to_end r measured in
  print e2e;
  let metrics =
    if !trace = 0 then e2e
    else begin
      let layers = per_layer r ~untraced in
      print layers;
      (* The phase split must account for the whole submission. *)
      for q = 0 to n_queries - 1 do
        let get base =
          let _, v, _, _ = List.find (fun (n, _, _, _) -> n = base ^ "." ^ qname q) layers in
          v
        in
        let phases =
          List.map get
            [ "relational.parse_ms"; "usage_log.track_ms"; "engine.eval_ms"; "witness.mark_ms";
              "witness.delete_ms"; "witness.insert_ms"; "persist.commit_ms"; "engine.exec_ms" ]
        in
        let rest = get "engine.unattributed_ms" and total = get "engine.submit_ms" in
        let parts = sum phases +. rest in
        Printf.printf
          "# attribution %s: phases %.4f + unattributed %.4f = %.4f ms; submission %.4f ms\n"
          (qname q) (sum phases) rest parts total;
        if Float.abs (parts -. total) > 1e-6 *. Float.max 1. total then
          problem r "attribution of %s: parts %.6f ms, submission %.6f ms" (qname q) parts total
      done;
      let file = Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed in
      let path = Filename.concat !out_dir file in
      Trace.write r.tr path;
      Printf.printf "# spans written to %s\n" path;
      layers
    end
  in
  List.iter (fun p -> Printf.printf "# check failed: %s\n" p) (List.rev r.problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.problems = [] && r.attempted > 0)
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit, _) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string name)
              (json_number v) (Trace.json_string unit))
          metrics))
