(* The benchmark's entry point.

     pb.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
     pb.exe gen          (the load generator; see gen.ml)
     pb.exe selftest     (the benchmark's own tests; see selftest.ml)

   One run measures one workload in this fresh process, in a fixed
   order: set-up and a serve session against the daemon it started
   (several times; medians reported), the batch step, then the checks.  With [--trace 1] it instead replays
   every operation layer by layer with spans (see replay.ml) and
   reports the per-layer metrics.  The last stdout line is one JSON
   object: correct, attempted, failed, metrics. *)

open Paulihedral
module Batch = Ph_pool.Batch
module Cache = Ph_pool.Cache
module Server = Ph_serve.Server
module Protocol = Ph_serve.Protocol
module Json = Ph_json
module Coupling = Ph_hardware.Coupling

let now = Unix.gettimeofday

let rec mkdir_p d =
  if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out_dir : string;
}

(* ---------- set-up ---------- *)

(* The daemon listens on a Unix-domain socket under [out_dir]: one
   relative path per process, removed when the run ends. *)
let socket_path o = Filename.concat o.out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

type setup = {
  work : Work.t;
  lines : string array;  (** serve request lines, by request index *)
  server : Server.t;
}

let all_specs (w : Work.t) = w.Work.batch @ Array.to_list w.Work.serve.Work.specs

(* Input generation, device warm-up (the lazy all-pairs BFS behind
   [Coupling.distance], on a fresh copy of the device each time, and a
   first compile per configuration) and daemon start. *)
let set_up o =
  let work = Work.make ~smoke:o.smoke ~seconds:o.seconds ~seed:o.seed o.workload in
  let plan = work.Work.serve in
  let lines = Array.init (Array.length plan.Work.requests) (Work.request_line plan) in
  let m = Ph_hardware.Devices.manhattan in
  ignore (Coupling.distance m 0 0);
  ignore (Coupling.distance (Coupling.create (Coupling.n_qubits m) (Coupling.edges m)) 0 0);
  let tiny = Ph_pauli_ir.Parser.parse "{(ZZ, 1.0), (XX, 0.5), 0.1};" in
  let warmed = Hashtbl.create 8 in
  List.iter
    (fun (s : Work.spec) ->
      if not (Hashtbl.mem warmed s.Work.config_name) then begin
        Hashtbl.add warmed s.Work.config_name ();
        ignore (Compiler.compile s.Work.config tiny)
      end)
    (all_specs work);
  mkdir_p o.out_dir;
  let server =
    Server.start
      (Server.config ~jobs:2 ~cache:(Cache.create ()) (Protocol.Unix_path (socket_path o)))
  in
  { work; lines; server }

(* ---------- batch step ---------- *)

(* [record_md5]: digest of the job's normalized record, [None] when
   the job failed *)
type batch_sample = { spec : Work.spec; seconds : float; record_md5 : string option }

let text_md5 t = Digest.to_hex (Digest.string t)

(* The [phc batch] path, one job per call: [Batch.run ~jobs:1 ~verify:true]
   plus the JSON report.  Jobs run in their fixed order, cyclically: at
   least one full pass, then on until the budget is spent.  Also returns
   the reference-kernel times taken between jobs; each sample compacts
   the heap, outside the timed jobs. *)
let batch_step (w : Work.t) =
  let jobs = Array.of_list w.Work.batch in
  let speed = ref [] and last_speed = ref neg_infinity in
  let t0 = now () in
  let rec go i acc =
    let spec = jobs.(i mod Array.length jobs) in
    if i >= Array.length jobs && now () -. t0 >= w.Work.batch_budget_s then
      List.rev acc, !speed
    else begin
      (* a reference sample at least every 0.25 s, between jobs *)
      if now () -. !last_speed >= 0.25 then begin
        speed := Speed.sample () :: !speed;
        last_speed := now ()
      end;
      let job = Batch.job ~id:0 ~name:spec.Work.name spec.Work.text in
      let s0 = now () in
      let b =
        Batch.run ~jobs:1 ~verify:true ~config:spec.Work.config
          ~config_name:spec.Work.config_name [ job ]
      in
      ignore (Json.to_string (Batch.report_json b));
      let seconds = now () -. s0 in
      let record_md5 =
        match b.Batch.outcomes with
        | [ { Batch.result = Batch.Ok r; _ } ] ->
          Some (text_md5 (Json.to_string (Report.record_to_json (Report.normalize_record r))))
        | _ -> None
      in
      go (i + 1) ({ spec; seconds; record_md5 } :: acc)
    end
  in
  go 0 []

(* ---------- serve steps ---------- *)

type reply = { status : string; latency_ms : float; lag_ms : float; md5 : string }

type serve_out = {
  replies : reply array;
  depth_max : int;
  overloaded : int;
}

let stats_int path json =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    (Some json) path
  |> function Some (Json.Int n) -> n | _ -> 0

(* Drive the daemon with the generator process; with [sample] a thread
   polls the daemon's stats for its queue depth meanwhile. *)
let serve_step ~sample st =
  let path = Protocol.address_to_string (Server.address st.server) in
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "gen" |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let stop = Atomic.make false and depth_max = ref 0 in
  let sampler =
    if sample then
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get stop) do
               let d = stats_int [ "queue"; "depth" ] (Server.stats_json st.server) in
               if d > !depth_max then depth_max := d;
               Thread.delay 0.005
             done)
           ())
    else None
  in
  let feeder =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr in_w in
        Printf.fprintf oc "%s\n" path;
        Array.iteri
          (fun i line ->
            Printf.fprintf oc "%.9f\t%s\n" st.work.Work.serve.Work.requests.(i).Work.due line)
          st.lines;
        close_out oc)
      ()
  in
  let ic = Unix.in_channel_of_descr out_r in
  let output = In_channel.input_all ic in
  close_in ic;
  Thread.join feeder;
  let _, status = Unix.waitpid [] pid in
  Atomic.set stop true;
  Option.iter Thread.join sampler;
  if status <> Unix.WEXITED 0 then failwith "load generator failed";
  let n = Array.length st.lines in
  let replies = Array.make n { status = "transport"; latency_ms = infinity; lag_ms = 0.; md5 = "" } in
  String.split_on_char '\n' output
  |> List.iter (fun l ->
         match String.split_on_char '\t' l with
         | [ i; status; lat; lag; md5 ] ->
           replies.(int_of_string i) <-
             { status; latency_ms = float_of_string lat; lag_ms = float_of_string lag; md5 }
         | _ -> ());
  let overloaded = stats_int [ "requests"; "overloaded" ] (Server.stats_json st.server) in
  { replies; depth_max = !depth_max; overloaded }

(* [Work.sessions] times: a reference-kernel sample, set-up (timed),
   then one serve session against the daemon just started, which is
   drained after it.  Every session replays the same traffic.  Returns
   the set-up times with the kernel times taken before them, the last
   set-up and every session's replies. *)
let sessions o ~sample =
  let rec go k times last outs =
    if k = Work.sessions then List.split (List.rev times), Option.get last, List.rev outs
    else begin
      let speed = Speed.sample () in
      let t0 = now () in
      let st = set_up o in
      let t = now () -. t0 in
      let so =
        Fun.protect
          ~finally:(fun () -> Server.drain st.server)
          (fun () -> serve_step ~sample st)
      in
      go (k + 1) ((t, speed) :: times) (Some st) (so :: outs)
    end
  in
  go 0 [] None []

(* ---------- reporting ---------- *)

(* [in_result = false] marks a metric printed in the table only, not in
   the JSON result that BENCHMARK.json lists (see README.md). *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  better : string;
  n : int;
  in_result : bool;
}

let metric ?(better = "lower") ?(n = 1) ?(in_result = true) name unit_ value =
  { name; value; unit_; better; n; in_result }

(* The process high-water mark, from Linux's /proc. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         else None)
  |> function Some mb -> mb | None -> failwith "no VmHWM in /proc/self/status"

let environment () =
  Printf.sprintf "ocaml=%s os=%s word=%d cpus=%d aslr=%s" Sys.ocaml_version Sys.os_type
    Sys.word_size (Domain.recommended_domain_count ())
    (match Sys.getenv_opt "PERFBENCH_ASLR" with Some s -> s | None -> "unknown")

let print_report o ~attempted ~failed metrics =
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b%s\n" o.workload o.seed o.seconds
    o.trace (if o.smoke then " smoke" else "");
  Printf.printf "env %s\n" (environment ());
  Printf.printf "%-26s %18s %-7s %-6s %7s\n" "metric" "value" "unit" "better" "samples";
  let row m =
    Printf.printf "%-26s %18.6f %-7s %-6s %7d%s\n" m.name m.value m.unit_ m.better m.n
      (if m.in_result then "" else "  (table only)")
  in
  List.iter row metrics;
  row
    (metric ~n:attempted ~in_result:false "failed_ratio" "ratio"
       (float_of_int failed /. float_of_int (max 1 attempted)));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            "correct", Json.Bool (failed = 0);
            "attempted", Json.Int attempted;
            "failed", Json.Int failed;
            ( "metrics",
              Json.Obj
                (List.filter_map
                   (fun m ->
                     if m.in_result then
                       Some
                         ( m.name,
                           Json.Obj [ "value", Json.Float m.value; "unit", Json.String m.unit_ ] )
                     else None)
                   metrics) );
          ]))

(* ---------- checks ---------- *)

(* What the checks compare a program's outputs with: its direct
   compile's normalized record, as a digest, and its metrics. *)
type expected = {
  record_md5 : string;
  metrics : Report.metrics option;  (** [None] when the cache answered *)
  failure : string option;
}

let expected_of (r : Replay.result) =
  {
    record_md5 = text_md5 r.Replay.record_text;
    metrics = Option.map (fun c -> c.Replay.metrics) r.Replay.compiled;
    failure = r.Replay.failure;
  }

(* Digest of everything a compile produced (circuit, rotations, metrics,
   pass and work counters), for parity between the direct and the
   replayed compile.  Without sharing, equal values marshal to equal
   bytes. *)
let compiled_md5 (c : Replay.compiled) =
  Digest.to_hex (Digest.string (Marshal.to_string c [ Marshal.No_sharing ]))

type checked = {
  expected : (string, expected) Hashtbl.t;  (** by spec name *)
  mutable failed : int;
}

(* The direct compile of every distinct spec not yet checked. *)
let check_specs chk specs =
  List.iter
    (fun (s : Work.spec) ->
      if not (Hashtbl.mem chk.expected s.Work.name) then
        Hashtbl.replace chk.expected s.Work.name
          (expected_of (Replay.batch_op Replay.Direct ~job:0 s)))
    specs

(* Serve replies: ok, and byte-equal to the normalized direct compile.
   Returns which requests failed. *)
let check_replies chk (st : setup) (so : serve_out) =
  let plan = st.work.Work.serve in
  Array.mapi
    (fun i r ->
      let spec = plan.Work.specs.(plan.Work.requests.(i).Work.spec) in
      let e = Hashtbl.find chk.expected spec.Work.name in
      let bad = r.status <> "ok" || e.failure <> None || r.md5 <> e.record_md5 in
      if bad then begin
        if chk.failed < 5 then
          Printf.eprintf "serve request %d (%s): %s\n%!" i spec.Work.name
            (if r.status <> "ok" then r.status else "reply differs from direct compile");
        chk.failed <- chk.failed + 1
      end;
      bad)
    so.replies

let out_metrics chk =
  let sum f =
    Hashtbl.fold
      (fun _ e acc ->
        match e.metrics, e.failure with Some m, None -> acc + f m | _ -> acc)
      chk.expected 0
    |> float_of_int
  in
  let n = Hashtbl.length chk.expected in
  [
    metric ~n "out.cnot" "count" (sum (fun m -> m.Report.cnot));
    metric ~n "out.gates" "count" (sum (fun m -> m.Report.total));
    metric ~n "out.depth" "count" (sum (fun m -> m.Report.depth));
  ]

(* [sessions]: each session's replies with which of them failed. *)
let serve_metrics (st : setup) sessions =
  let plan = st.work.Work.serve in
  let of_step step =
    List.filter
      (fun i -> plan.Work.requests.(i).Work.step = step)
      (List.init (Array.length plan.Work.requests) Fun.id)
  in
  let nominal = of_step Work.Nominal and burst = of_step Work.Burst in
  (* a failed request misses every latency limit *)
  let lat (so, bad) i = if bad.(i) then infinity else so.replies.(i).latency_ms in
  let nominal_lat s = List.map (lat s) nominal in
  let goodput s =
    float_of_int (List.length (List.filter (fun i -> lat s i <= plan.Work.limit_ms) burst))
    /. Work.burst_s
  in
  let n = List.length sessions in
  [
    (* the median session's median: a session's daemon settles into a
       state that lasts for the session, so one session does not
       decide a run *)
    metric ~n:(n * List.length nominal) ~in_result:false "serve.p50_ms" "ms"
      (Stats.median (List.map (fun s -> Stats.median (nominal_lat s)) sessions));
    metric ~n:(n * List.length nominal) ~in_result:false "serve.p99_ms" "ms"
      (Stats.percentile (Stats.sorted_of_list (List.concat_map nominal_lat sessions)) 99.);
    metric ~better:"higher" ~in_result:false ~n:(n * List.length burst) "serve.goodput_rps"
      "1/s"
      (Stats.median (List.map goodput sessions));
  ]

(* ---------- the two kinds of run ---------- *)

let measured o =
  (* the daemon's threads share this domain, so the batch step runs
     only once the last one has drained: a thread switch inside a
     compile would charge the daemon's allocation to the compile's
     counters *)
  let (setup_times, setup_speed), st, sos = sessions o ~sample:false in
  let samples, speed = batch_step st.work in
  (* the high-water mark of the serve and batch steps, before the
     checks' own compiles can raise it *)
  let peak_rss = peak_rss_mb () in
  let chk = { expected = Hashtbl.create 256; failed = 0 } in
  check_specs chk (all_specs st.work);
  List.iter
    (fun b ->
      let e = Hashtbl.find chk.expected b.spec.Work.name in
      if e.failure <> None || b.record_md5 <> Some e.record_md5 then begin
        Printf.eprintf "batch job %s: %s\n%!" b.spec.Work.name
          (match e.failure with
          | Some f -> f
          | None -> "batch record differs from direct compile");
        chk.failed <- chk.failed + 1
      end)
    samples;
  let bad = List.map (check_replies chk st) sos in
  let per_job = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let prev = Option.fold ~none:[] ~some:snd (Hashtbl.find_opt per_job b.spec.Work.name) in
      Hashtbl.replace per_job b.spec.Work.name (b.spec, b.seconds :: prev))
    samples;
  let terms, secs =
    Hashtbl.fold
      (fun _ (spec, ts) (terms, secs) -> terms + spec.Work.terms, secs +. Stats.median ts)
      per_job (0, 0.)
  in
  (* timings are reported at the machine's nominal speed: divided by
     the reference kernel's slowdown over the same step (see speed.ml) *)
  let phase samples = Stats.median samples /. Speed.nominal_s in
  let metrics =
    [
      metric ~n:Work.sessions "setup_s" "s"
        (Stats.median setup_times /. phase setup_speed);
      metric ~n:Work.sessions ~in_result:false "setup_s.raw" "s" (Stats.median setup_times);
    ]
    @ (let raw = float_of_int terms /. secs in
       [
         metric ~better:"higher" ~n:(List.length samples) "batch.terms_per_s" "1/s"
           (raw *. phase speed);
         metric ~better:"higher" ~n:(List.length samples) ~in_result:false
           "batch.terms_per_s.raw" "1/s" raw;
         metric ~n:(List.length speed) ~in_result:false "speed.reference_ms" "ms"
           (Stats.median speed *. 1000.);
       ])
    @ serve_metrics st (List.combine sos bad)
    @ [ metric "peak_rss_mb" "MB" peak_rss ]
    @ out_metrics chk
  in
  let attempted =
    List.length samples + List.fold_left (fun n so -> n + Array.length so.replies) 0 sos
  in
  print_report o ~attempted ~failed:chk.failed metrics

let write_trace o spans =
  mkdir_p o.out_dir;
  let file =
    Filename.concat o.out_dir (Printf.sprintf "trace-%s-%d.json" o.workload o.seed)
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (Spans.chrome_json spans)));
  Printf.printf "trace written to %s\n" file

(* The layers whose self times the traced run reports. *)
let layers =
  [ "peephole"; "synthesis"; "swap_decompose"; "schedule"; "opt"; "parse"; "emit";
    "protocol"; "cache"; "verify"; "certificate" ]

let traced o =
  let _, st, sos = sessions o ~sample:true in
  let w = st.work in
  let plan = w.Work.serve in
  (* the replayed operations: every batch job once, then one session's
     warm-up and nominal requests in order through a cache like the
     daemon's *)
  let batch = Array.of_list w.Work.batch in
  let n_serve =
    Array.fold_left
      (fun n q -> if q.Work.step = Work.Burst then n else n + 1)
      0 plan.Work.requests
  in
  let n_ops = Array.length batch + n_serve in
  (* each operation is timed on its own; only its summary is kept, so
     every pass runs on a heap of the same size *)
  let run mode =
    let cache = Cache.create () in
    Gc.compact ();
    let total = ref 0. in
    let results =
      Array.init n_ops (fun j ->
          let t0 = now () in
          let r =
            if j < Array.length batch then Replay.batch_op mode ~job:j batch.(j)
            else Replay.serve_op mode ~job:j ~cache st.lines.(j - Array.length batch)
          in
          total := !total +. (now () -. t0);
          expected_of r, Option.map compiled_md5 r.Replay.compiled)
    in
    results, !total
  in
  (* direct, traced, direct again: the overhead is taken against the
     mean of the two direct passes, which cancels a drift between them *)
  let direct, t_direct = run Replay.Direct in
  let spans = Spans.create () and counts = Replay.counts () in
  let replayed, t_traced = run (Replay.Traced (spans, counts)) in
  let direct2, t_direct2 = run Replay.Direct in
  let chk = { expected = Hashtbl.create 256; failed = 0 } in
  let spec_of j =
    if j < Array.length batch then batch.(j)
    else plan.Work.specs.(plan.Work.requests.(j - Array.length batch).Work.spec)
  in
  Array.iteri
    (fun j (d, d_md5) ->
      let name = (spec_of j).Work.name in
      if d_md5 <> None then Hashtbl.replace chk.expected name d;
      let r, r_md5 = replayed.(j) in
      if d.failure <> None || r.failure <> None || d_md5 <> r_md5 then begin
        Printf.eprintf "op %d (%s): %s\n%!" j name
          (match d.failure, r.failure with
          | Some f, _ | None, Some f -> f
          | None, None -> "replay differs from Compiler.compile");
        chk.failed <- chk.failed + 1
      end)
    direct;
  Array.iter (fun (d, _) -> if d.failure <> None then chk.failed <- chk.failed + 1) direct2;
  check_specs chk (Array.to_list plan.Work.specs);
  List.iter (fun so -> ignore (check_replies chk st so)) sos;
  let spans = Spans.spans spans in
  let self = Spans.self_by_name spans in
  let self_s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let alloc_mw name =
    List.fold_left
      (fun a (s : Spans.span) -> if s.Spans.name = name then a +. s.Spans.minor_words else a)
      0. spans
    /. 1e6
  in
  let calls name = List.length (List.filter (fun (s : Spans.span) -> s.Spans.name = name) spans) in
  let s name = metric ~n:(calls name) (name ^ ".s") "s" (self_s name) in
  let count ?(better = "higher") name v = metric ~better ~n:n_ops name "count" (float_of_int v) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let c = counts in
  (* how late the generator sent at the rates the daemon keeps up
     with; in a burst a send also waits for the socket buffer to drain *)
  let lags =
    Stats.sorted_of_list
      (List.concat_map
         (fun so ->
           List.filteri
             (fun i _ -> plan.Work.requests.(i).Work.step <> Work.Burst)
             (Array.to_list (Array.map (fun r -> r.lag_ms) so.replies)))
         sos)
  in
  let n_replies = List.fold_left (fun n so -> n + Array.length so.replies) 0 sos in
  let metrics =
    [
      s "peephole";
      metric ~n:(calls "peephole") "peephole.alloc_mw" "Mword" (alloc_mw "peephole");
      count ~better:"lower" "peephole.probes" c.Replay.peephole_probes;
      count "peephole.removed" c.Replay.peephole_removed;
      count ~better:"lower" "peephole.rounds" c.Replay.peephole_rounds;
      metric ~better:"higher" ~n:c.Replay.peephole_probes "peephole.useful_ratio" "ratio"
        (ratio c.Replay.peephole_removed c.Replay.peephole_probes);
      s "synthesis";
      metric ~n:(calls "synthesis") "synthesis.alloc_mw" "Mword" (alloc_mw "synthesis");
      count ~better:"lower" "synthesis.gates_out" c.Replay.gates_out;
      count ~better:"lower" "synthesis.swaps" c.Replay.swaps;
      s "swap_decompose";
      s "schedule";
      metric ~n:(calls "schedule") "schedule.alloc_mw" "Mword" (alloc_mw "schedule");
      count ~better:"lower" "schedule.layers" c.Replay.layers;
      s "opt";
      count "opt.groups" c.Replay.opt_groups;
      s "parse";
      s "emit";
      s "protocol";
      s "cache";
      metric ~better:"higher" ~n:c.Replay.cache_lookups "cache.hit_ratio" "ratio"
        (ratio c.Replay.cache_hits c.Replay.cache_lookups);
      s "verify";
      s "certificate";
      metric ~n:n_replies "pool.queue_depth.max" "count"
        (float_of_int (List.fold_left (fun m so -> max m so.depth_max) 0 sos));
      metric ~n:n_replies "pool.overloaded" "count"
        (float_of_int (List.fold_left (fun n so -> n + so.overloaded) 0 sos));
      metric ~n:(Array.length lags) "generator.lag_ms.p99" "ms" (Stats.percentile lags 99.);
      metric ~n:n_ops "trace.overhead_s" "s" (t_traced -. ((t_direct +. t_direct2) /. 2.));
    ]
  in
  write_trace o spans;
  let largest =
    List.fold_left
      (fun best l -> if self_s l > self_s best then l else best)
      (List.hd layers) layers
  in
  Printf.printf "%s%s.s\n" Selftest.largest_prefix largest;
  print_report o ~attempted:((3 * n_ops) + n_replies) ~failed:chk.failed metrics

(* ---------- entry ---------- *)

let parse_args argv =
  let o =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 20.;
        trace = false;
        smoke = false;
        out_dir = Filename.concat "perfbench" "out";
      }
  in
  let rec go = function
    | "--workload" :: w :: rest -> o := { !o with workload = w }; go rest
    | "--seed" :: s :: rest -> o := { !o with seed = int_of_string s }; go rest
    | "--seconds" :: s :: rest -> o := { !o with seconds = float_of_string s }; go rest
    | "--trace" :: t :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--smoke" :: rest -> o := { !o with smoke = true }; go rest
    | "--out" :: d :: rest -> o := { !o with out_dir = d }; go rest
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go argv;
  if not (List.mem !o.workload Work.names) then
    failwith ("--workload must be one of " ^ String.concat ", " Work.names);
  !o

let bench argv =
  let o = parse_args argv in
  Fun.protect
    ~finally:(fun () -> try Sys.remove (socket_path o) with Sys_error _ -> ())
    (fun () -> if o.trace then traced o else measured o)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "gen" :: _ -> Gen.main ()
  | "selftest" :: rest -> Selftest.main rest
  | argv -> (
    try bench argv
    with Failure m | Invalid_argument m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
