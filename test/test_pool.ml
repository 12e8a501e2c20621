(* Tests of the lib/pool batch-compilation service: the domain worker
   pool (submission-order results, every job answering through a
   promise), the content-addressed compile cache (two tiers, eviction,
   fingerprint invalidation, torn/corrupt disk entries) and the batch
   coordinator (determinism across --jobs, fault isolation, warm-cache
   reruns, the verified-only store policy). *)

open Paulihedral
open Ph_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Pool: ordering, isolation, timings --- *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let inputs = List.init 20 (fun i -> i) in
      let results = Pool.map ~jobs (fun i -> i * i) inputs in
      check_int "one result per input" 20 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int "submission order" (i * i) v
          | Error _ -> Alcotest.fail "unexpected error")
        results)
    [ 1; 4 ]

exception Boom of int

let test_pool_exception_isolation () =
  let results =
    Pool.map ~jobs:4
      (fun i -> if i = 7 then raise (Boom i) else i + 1)
      (List.init 16 (fun i -> i))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
        check "only job 7 fails" true (i <> 7);
        check_int "value" (i + 1) v
      | Error (Boom k) -> check_int "failing job" 7 k
      | Error _ -> Alcotest.fail "wrong exception")
    results

let test_pool_map_timed () =
  let results = Pool.map_timed ~jobs:2 (fun i -> i) (List.init 8 (fun i -> i)) in
  List.iteri
    (fun i (r, t) ->
      (match r with
      | Ok v -> check_int "result" i v
      | Error _ -> Alcotest.fail "unexpected error");
      check "queue wait nonnegative" true (t.Pool.queue_s >= 0.);
      check "run time nonnegative" true (t.Pool.run_s >= 0.))
    results

let test_pool_map_single_job_on_caller () =
  let self = (Domain.self () :> int) in
  let order = ref [] in
  let results =
    Pool.map ~jobs:1
      (fun i ->
        order := i :: !order;
        (Domain.self () :> int))
      [ 0; 1; 2; 3 ]
  in
  check "jobs:1 runs on the calling domain" true
    (List.for_all (fun r -> r = Ok self) results);
  Alcotest.(check (list int)) "in list order" [ 0; 1; 2; 3 ] (List.rev !order);
  (* [jobs] is clamped to the list length: one item never spawns *)
  check "one item with jobs:4 runs on the calling domain" true
    (Pool.map ~jobs:4 (fun () -> (Domain.self () :> int)) [ () ] = [ Ok self ])

(* --- Pool: admission control & worker health --- *)

let submit pool f = Option.get (Pool.try_submit pool ~max_pending:max_int f)
let answer p = fst (Pool.await p)

let test_pool_try_submit_bound () =
  let pool = Pool.create 1 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Atomic.make false in
  let first =
    Pool.try_submit pool ~max_pending:2 (fun () ->
        Atomic.set started true;
        Mutex.lock gate;
        Mutex.unlock gate)
  in
  check "first admitted" true (Option.is_some first);
  (* once the job is running it still counts against the bound *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let second = Pool.try_submit pool ~max_pending:2 (fun () -> ()) in
  check "second admitted" true (Option.is_some second);
  check_int "pending counts queued plus running" 2 (Pool.pending pool);
  check "rejected at the bound" true
    (Option.is_none (Pool.try_submit pool ~max_pending:2 (fun () -> ())));
  Mutex.unlock gate;
  List.iter (fun p -> ignore (Pool.await (Option.get p))) [ first; second ];
  (* a filled promise means its job no longer counts as pending *)
  check_int "drained" 0 (Pool.pending pool);
  let third = Pool.try_submit pool ~max_pending:2 (fun () -> ()) in
  check "admitted again after drain" true (Option.is_some third);
  ignore (Pool.await (Option.get third));
  Pool.shutdown pool

(* Every awaiter gets its own job's answer, and a raising job leaves
   nothing pending — what lets serve's drain finish. *)
let test_pool_raising_job_answers_error () =
  let pool = Pool.create 2 in
  let promises =
    List.init 8 (fun i ->
        submit pool (fun () -> if i mod 2 = 0 then raise (Boom i) else i))
  in
  List.iteri
    (fun i p ->
      match answer p with
      | Ok v -> check_int "odd jobs answer their value" i v
      | Error (Boom k) -> check_int "even jobs answer their own exception" i k
      | Error _ -> Alcotest.fail "wrong exception")
    promises;
  check_int "nothing left pending" 0 (Pool.pending pool);
  Pool.shutdown pool

let test_pool_unexpected_exception_counter () =
  let pool = Pool.create 2 in
  (match answer (submit pool (fun () -> failwith "boom")) with
  | Error (Failure m) -> check_str "awaiter gets the exception" "boom" m
  | _ -> Alcotest.fail "expected Error (Failure \"boom\")");
  let s = Pool.worker_stats pool in
  check_int "escaped exception counted" 1 s.Pool.unexpected_exceptions;
  (* Printexc.to_string (Failure "boom") mentions the payload *)
  let contains sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "printed form kept" true
    (match s.Pool.last_unexpected with
    | Some m -> contains "boom" m
    | None -> false);
  check_int "no worker died" 0 s.Pool.dead_workers;
  check "worker survived and keeps serving" true
    (answer (submit pool (fun () -> true)) = Ok true);
  Pool.shutdown pool

let test_pool_fatal_exception_replaces_worker () =
  let pool = Pool.create 1 in
  (match answer (submit pool (fun () -> raise Stack_overflow)) with
  | Error Stack_overflow -> ()
  | _ -> Alcotest.fail "expected Error Stack_overflow");
  (* the promise is filled in the step that records the death, before
     the dying worker spawns its replacement *)
  check_int "death recorded by the time the job answers" 1
    (Pool.worker_stats pool).Pool.dead_workers;
  check "replacement worker serves after a fatal job" true
    (answer (submit pool (fun () -> true)) = Ok true);
  let s = Pool.worker_stats pool in
  check_int "fatal exception counted" 1 s.Pool.unexpected_exceptions;
  check_int "worker death recorded" 1 s.Pool.dead_workers;
  (* joining the dead worker must not resurface the fatal exception *)
  Pool.shutdown pool

(* --- Cache: keys, tiers, eviction, corruption --- *)

let test_cache_key () =
  let k1 = Cache.key ~config_fp:"a" ~text:"t" in
  check_str "stable" k1 (Cache.key ~config_fp:"a" ~text:"t");
  check "fingerprint separates" true (k1 <> Cache.key ~config_fp:"b" ~text:"t");
  check "text separates" true (k1 <> Cache.key ~config_fp:"a" ~text:"u");
  (* the two components must not be confusable with each other *)
  check "no concatenation ambiguity" true
    (Cache.key ~config_fp:"ab" ~text:"c" <> Cache.key ~config_fp:"a" ~text:"bc")

let test_cache_memory_tier () =
  let c = Cache.create () in
  let k = Cache.key ~config_fp:"fp" ~text:"prog" in
  check "miss on empty" true (Cache.find c k = None);
  Cache.store c k (Json.String "payload");
  check "hit after store" true (Cache.find c k = Some (Json.String "payload"));
  let counters = Cache.counters c in
  check_int "one memory hit" 1 counters.Cache.hits_mem;
  check_int "one miss" 1 counters.Cache.misses;
  check_int "one store" 1 counters.Cache.stores

let test_cache_eviction () =
  let c = Cache.create ~max_memory_entries:2 () in
  let key i = Cache.key ~config_fp:"fp" ~text:(string_of_int i) in
  List.iter (fun i -> Cache.store c (key i) (Json.Int i)) [ 0; 1; 2 ];
  check_int "oldest evicted" 1 (Cache.counters c).Cache.evictions;
  (* no disk tier: the evicted entry is gone, the newest two remain *)
  check "entry 0 evicted" true (Cache.find c (key 0) = None);
  check "entry 1 kept" true (Cache.find c (key 1) = Some (Json.Int 1));
  check "entry 2 kept" true (Cache.find c (key 2) = Some (Json.Int 2))

let temp_dir () =
  let path = Filename.temp_file "phc-pool-test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let test_cache_disk_tier () =
  let dir = temp_dir () in
  let k = Cache.key ~config_fp:"fp" ~text:"prog" in
  let writer = Cache.create ~dir () in
  Cache.store writer k (Json.Obj [ "x", Json.Int 1 ]);
  (* a fresh cache on the same directory serves the entry from disk and
     promotes it into memory *)
  let reader = Cache.create ~dir () in
  check "disk hit" true (Cache.find reader k = Some (Json.Obj [ "x", Json.Int 1 ]));
  check_int "served from disk" 1 (Cache.counters reader).Cache.hits_disk;
  check "promoted to memory" true
    (Cache.find reader k = Some (Json.Obj [ "x", Json.Int 1 ]));
  check_int "second hit from memory" 1 (Cache.counters reader).Cache.hits_mem

let test_cache_corrupt_disk_entry () =
  let dir = temp_dir () in
  let k = Cache.key ~config_fp:"fp" ~text:"prog" in
  let oc = open_out (Filename.concat dir (k ^ ".json")) in
  output_string oc "not json {";
  close_out oc;
  let c = Cache.create ~dir () in
  check "corrupt entry is a miss" true (Cache.find c k = None);
  check_int "counted as miss" 1 (Cache.counters c).Cache.misses

(* --- Cache: shared-directory races, stale-temp reclamation --- *)

let no_temps dir =
  Array.for_all
    (fun name -> not (String.length name > 5 && String.sub name 0 5 = ".tmp-"))
    (Sys.readdir dir)

(* Two writers attach to the same *not-yet-existing* directory and store
   concurrently: the mkdir race must be invisible (no lost stores) and
   no writer may leave its temp file behind. *)
let test_cache_concurrent_create_and_store () =
  let dir = temp_dir () in
  Sys.rmdir dir;
  let store_range lo hi () =
    let c = Cache.create ~dir () in
    for i = lo to hi - 1 do
      Cache.store c
        (Cache.key ~config_fp:"fp" ~text:(string_of_int i))
        (Json.Int i)
    done
  in
  let d1 = Domain.spawn (store_range 0 50) in
  let d2 = Domain.spawn (store_range 25 75) in
  Domain.join d1;
  Domain.join d2;
  let reader = Cache.create ~dir () in
  for i = 0 to 74 do
    check
      (Printf.sprintf "store %d survived the race" i)
      true
      (Cache.find reader (Cache.key ~config_fp:"fp" ~text:(string_of_int i))
      = Some (Json.Int i))
  done;
  check "no temp files left behind" true (no_temps dir)

let touch path =
  let oc = open_out path in
  output_string oc "partial write";
  close_out oc

let test_cache_stale_temp_sweep () =
  let dir = temp_dir () in
  (* a demonstrably dead writer pid: a reaped child *)
  let pid =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  let dead = Filename.concat dir (Printf.sprintf ".tmp-aaaa-%d" pid) in
  let live = Filename.concat dir (Printf.sprintf ".tmp-bbbb-%d" (Unix.getpid ())) in
  let junk = Filename.concat dir ".tmp-no-pid-suffix" in
  touch dead;
  touch live;
  touch junk;
  let _ = Cache.create ~dir () in
  check "dead writer's temp swept" false (Sys.file_exists dead);
  check "unparseable temp swept" false (Sys.file_exists junk);
  check "live writer's temp preserved" true (Sys.file_exists live);
  (* entries are untouched by the sweep *)
  let c = Cache.create ~dir () in
  let k = Cache.key ~config_fp:"fp" ~text:"x" in
  Cache.store c k (Json.Int 1);
  let c2 = Cache.create ~dir () in
  check "entry survives a later attach" true (Cache.find c2 k = Some (Json.Int 1))

(* --- Batch: determinism, fault isolation, caching --- *)

(* 20 generated kernels (printed back to concrete syntax, symbolic
   parameters and all) plus two hand-written sources. *)
let corpus () =
  let generated =
    List.init 20 (fun i ->
        let case = Ph_fuzz.Gen.case ~max_qubits:6 ~seed:11 i in
        ( Printf.sprintf "gen-%02d" i,
          Ph_pauli_ir.Parser.to_text case.Ph_fuzz.Gen.program,
          case.Ph_fuzz.Gen.params ))
  in
  generated
  @ [
      "pair", "{(XX, 1.0), 0.5};\n{(ZZ, 1.0), 0.25};\n", [];
      "single", "{(XYZI, 0.5), (IIZZ, -1.0), 1.0};\n", [];
    ]

let jobs_of corpus =
  List.mapi (fun id (name, source, params) -> Batch.job ~id ~name ~params source)
    corpus

let ft_config = Config.ft ()

let report_string ?timings batch =
  Json.to_string ~indent:true (Batch.report_json ?timings batch)

let test_batch_jobs_deterministic () =
  let js = jobs_of (corpus ()) in
  let seq = Batch.run ~jobs:1 ~config:ft_config ~config_name:"ft/do" js in
  let par = Batch.run ~jobs:4 ~config:ft_config ~config_name:"ft/do" js in
  check_int "all ok (sequential)" (List.length js) (Batch.ok_count seq);
  check_str "report byte-identical across --jobs" (report_string seq)
    (report_string par)

let test_batch_fault_isolation () =
  let js =
    jobs_of
      [
        "good-1", "{(XX, 1.0), 0.5};\n", [];
        "bad", "{(XQ, 1.0), 0.5};\n", [];
        "good-2", "{(ZZ, 1.0), 0.25};\n", [];
      ]
  in
  let batch = Batch.run ~jobs:4 ~config:ft_config ~config_name:"ft/do" js in
  check_int "two jobs still complete" 2 (Batch.ok_count batch);
  match Batch.failed batch with
  | [ o ] -> (
    check_str "failing job" "bad" o.Batch.job.Batch.name;
    match o.Batch.result with
    | Batch.Failed f -> check_str "failed at parse" "parse" f.stage
    | Batch.Ok _ -> Alcotest.fail "expected failure")
  | os -> Alcotest.failf "expected exactly one failure, got %d" (List.length os)

let records_of batch =
  List.filter_map
    (fun (o : Batch.outcome) ->
      match o.Batch.result with
      | Batch.Ok r -> Some (Json.to_string (Report.record_to_json (Report.normalize_record r)))
      | Batch.Failed _ -> None)
    batch.Batch.outcomes

let test_batch_cache_warm_rerun () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let cold = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  let warm = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  check_int "cold run compiled everything" 0 cold.Batch.stats.Report.cache_hits;
  check_int "warm run is 100% hits" (List.length js)
    warm.Batch.stats.Report.cache_hits;
  check_int "warm run compiled nothing" 0 warm.Batch.stats.Report.cache_misses;
  check "every warm outcome is cache-served" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin = Batch.From_cache)
       warm.Batch.outcomes);
  Alcotest.(check (list string))
    "warm records identical to cold" (records_of cold) (records_of warm)

(* Only verified compiles are published: a --no-verify run reads the
   cache but stores nothing, so a verified rerun must compile afresh. *)
let test_batch_no_verify_stores_nothing () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let unchecked =
    Batch.run ~cache ~jobs:2 ~verify:false ~config:ft_config
      ~config_name:"ft/do" js
  in
  check_int "unchecked run compiled everything" (List.length js)
    (Batch.ok_count unchecked);
  check_int "unchecked run stored nothing" 0 (Cache.counters cache).Cache.stores;
  let checked =
    Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js
  in
  check_int "verified rerun had no hits" 0 checked.Batch.stats.Report.cache_hits;
  check "every verified job compiled" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin = Batch.Compiled)
       checked.Batch.outcomes)

let test_batch_stale_fingerprint_misses () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let _ = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  (* a different window changes the config fingerprint, so every lookup
     must miss even though the sources are unchanged *)
  let stale_config = Config.ft ~window:3 () in
  check "fingerprints differ" true
    (Config.fingerprint ft_config <> Config.fingerprint stale_config);
  let rerun =
    Batch.run ~cache ~jobs:2 ~config:stale_config ~config_name:"ft/do-w3" js
  in
  check_int "no stale hits" 0 rerun.Batch.stats.Report.cache_hits;
  check "everything recompiled" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin = Batch.Compiled)
       rerun.Batch.outcomes)

(* A cache hit is relabeled to the requester's identity: a rerun under
   another config name with an equal fingerprint (sched_jobs is not part
   of it) must report its own config on every cache-served record. *)
let test_batch_cache_relabels_config () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let _ = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"A" js in
  let config_b = Config.ft ~sched_jobs:2 () in
  check_str "equal fingerprints" (Config.fingerprint ft_config)
    (Config.fingerprint config_b);
  let rerun = Batch.run ~cache ~jobs:2 ~config:config_b ~config_name:"B" js in
  check_int "every job served from the cache" (List.length js)
    rerun.Batch.stats.Report.cache_hits;
  List.iter
    (fun (o : Batch.outcome) ->
      match o.Batch.result with
      | Batch.Ok r ->
        check_str "config relabeled" "B" r.Report.config;
        check_str "bench relabeled" o.Batch.job.Batch.name r.Report.bench
      | Batch.Failed _ -> Alcotest.fail "cache-served job failed")
    rerun.Batch.outcomes

let test_batch_coalesces_duplicates () =
  let js =
    jobs_of
      [
        "a", "{(XX, 1.0), 0.5};\n", [];
        "b", "{(XX, 1.0), 0.5};\n", [];
        "c", "{(ZZ, 1.0), 0.5};\n", [];
      ]
  in
  let cache = Cache.create () in
  let batch = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  check_int "all ok" 3 (Batch.ok_count batch);
  let origins = List.map (fun o -> o.Batch.origin) batch.Batch.outcomes in
  check "duplicate coalesced onto the first compile" true
    (origins = [ Batch.Compiled; Batch.Coalesced; Batch.Compiled ]);
  match batch.Batch.outcomes with
  | [ _; o; _ ] -> (
    match o.Batch.result with
    | Batch.Ok r -> check_str "record renamed to the follower" "b" r.Report.bench
    | Batch.Failed _ -> Alcotest.fail "coalesced job failed")
  | _ -> Alcotest.fail "expected three outcomes"

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves submission order" `Quick
            test_pool_map_order;
          Alcotest.test_case "exception isolated to its job" `Quick
            test_pool_exception_isolation;
          Alcotest.test_case "map_timed reports timings" `Quick
            test_pool_map_timed;
          Alcotest.test_case "map ~jobs:1 runs on the calling domain" `Quick
            test_pool_map_single_job_on_caller;
          Alcotest.test_case "try_submit enforces the admission bound" `Quick
            test_pool_try_submit_bound;
          Alcotest.test_case "raising job answers Error to its awaiter" `Quick
            test_pool_raising_job_answers_error;
          Alcotest.test_case "escaped exception counted, worker survives"
            `Quick test_pool_unexpected_exception_counter;
          Alcotest.test_case "fatal exception kills and replaces the worker"
            `Quick test_pool_fatal_exception_replaces_worker;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key derivation" `Quick test_cache_key;
          Alcotest.test_case "memory tier" `Quick test_cache_memory_tier;
          Alcotest.test_case "FIFO eviction" `Quick test_cache_eviction;
          Alcotest.test_case "disk tier reload" `Quick test_cache_disk_tier;
          Alcotest.test_case "corrupt disk entry is a miss" `Quick
            test_cache_corrupt_disk_entry;
          Alcotest.test_case "concurrent create+store on one directory" `Quick
            test_cache_concurrent_create_and_store;
          Alcotest.test_case "stale temps swept, live temps preserved" `Quick
            test_cache_stale_temp_sweep;
        ] );
      ( "batch",
        [
          Alcotest.test_case "--jobs 4 report identical to --jobs 1" `Quick
            test_batch_jobs_deterministic;
          Alcotest.test_case "parse failure isolated" `Quick
            test_batch_fault_isolation;
          Alcotest.test_case "warm rerun: 100% hits, identical records" `Quick
            test_batch_cache_warm_rerun;
          Alcotest.test_case "--no-verify run stores nothing" `Quick
            test_batch_no_verify_stores_nothing;
          Alcotest.test_case "stale config fingerprint misses" `Quick
            test_batch_stale_fingerprint_misses;
          Alcotest.test_case "cache hits relabeled to the requester's config"
            `Quick test_batch_cache_relabels_config;
          Alcotest.test_case "in-batch duplicates coalesce" `Quick
            test_batch_coalesces_duplicates;
        ] );
    ]
