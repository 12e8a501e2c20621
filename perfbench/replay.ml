(* One operation of a workload, run two ways.

   [Direct] calls the program's entry points as its services do
   ([Compiler.compile], then the same certification the batch service
   and the daemon apply).  [Traced] replays the compile layer by layer
   through each layer's public functions, in the order
   [Compiler.compile] calls them, with a span around every call.  Both
   produce a result the caller compares: the trace may not measure a
   different program. *)

open Paulihedral
module Program = Ph_pauli_ir.Program
module Parser = Ph_pauli_ir.Parser
module Batch = Ph_pool.Batch
module Cache = Ph_pool.Cache
module Certificate = Ph_analysis.Certificate
module Counter = Ph_perf.Counter
module Protocol = Ph_serve.Protocol
module Json = Ph_json
open Ph_schedule
open Ph_synthesis
open Ph_gatelevel

(* Work counts read at the layer boundaries of a traced run. *)
type counts = {
  mutable peephole_probes : int;
  mutable peephole_removed : int;
  mutable peephole_rounds : int;
  mutable gates_out : int;
  mutable swaps : int;
  mutable layers : int;
  mutable opt_groups : int;
  mutable cache_lookups : int;
  mutable cache_hits : int;
}

let counts () =
  {
    peephole_probes = 0;
    peephole_removed = 0;
    peephole_rounds = 0;
    gates_out = 0;
    swaps = 0;
    layers = 0;
    opt_groups = 0;
    cache_lookups = 0;
    cache_hits = 0;
  }

type mode = Direct | Traced of Spans.t * counts

(* What a compile produced, for parity between the two modes. *)
type compiled = {
  gates : Gate.t array;
  rotations : (Ph_pauli.Pauli_string.t * float) list;
  metrics : Report.metrics;  (** [seconds] zeroed *)
  pass_counters : Report.pass_counters;
  work : (string * int) list;  (** compile-scoped work counters *)
}

type result = {
  record_text : string;  (** normalized record JSON, as the services emit it *)
  compiled : compiled option;  (** [None] when the cache answered *)
  failure : string option;
}

let span mode ~job name f =
  match mode with Traced (t, _) -> Spans.record t name ~job f | Direct -> f ()

let count mode f = match mode with Traced (_, c) -> f c | Direct -> ()

let work_counters perf =
  List.filter (fun (k, _) -> not (String.starts_with ~prefix:"alloc_" k)) perf

let compiled_of (out : Compiler.output) =
  {
    gates = Circuit.gates out.Compiler.circuit;
    rotations = out.Compiler.rotations;
    metrics = { out.Compiler.metrics with Report.seconds = 0. };
    pass_counters = out.Compiler.trace.Report.counters;
    work = work_counters out.Compiler.trace.Report.perf;
  }

let find_counter name assoc = Option.value ~default:0 (List.assoc_opt name assoc)

(* [Compiler.compile] for the configurations the workloads use (lint
   off, analyzer off), one span per layer call. *)
let layered mode ~job (config : Config.t) prog : Compiler.output =
  let span name f = span mode ~job name f in
  let n_qubits = Program.n_qubits prog in
  Counter.touch ();
  (match config.Config.backend with
  | Config.Sc { coupling; _ } -> ignore (Ph_hardware.Coupling.distance coupling 0 0)
  | Config.Ft | Config.Ion_trap -> ());
  let perf0 = Counter.snapshot () in
  let opt =
    match config.Config.schedule with
    | Config.Phoenix_like ->
      let o = span "opt" (fun () -> Ph_opt.Pass.run prog) in
      count mode (fun c -> c.opt_groups <- c.opt_groups + o.Ph_opt.Pass.stats.Ph_opt.Pass.groups);
      Some o
    | _ -> None
  in
  let sched_prog = match opt with Some o -> o.Ph_opt.Pass.program | None -> prog in
  let window = config.Config.window and jobs = config.Config.sched_jobs in
  let layers, (n_layers, padded) =
    span "schedule" (fun () ->
        match config.Config.schedule with
        | Config.Depth_oriented ->
          let l, s = Depth_oriented.schedule_stats ~window ~jobs sched_prog in
          l, (s.Depth_oriented.layers, s.Depth_oriented.padded)
        | Config.Gco ->
          let l = Gco.schedule sched_prog in
          l, (List.length l, 0)
        | Config.Max_overlap ->
          let l = Max_overlap.schedule ~window ~jobs sched_prog in
          l, (List.length l, 0)
        | Config.Program_order | Config.Phoenix_like ->
          let l = List.map Layer.of_block (Program.blocks sched_prog) in
          l, (List.length l, 0))
  in
  count mode (fun c -> c.layers <- c.layers + n_layers);
  let synthesized, rotations, layouts, swaps =
    match config.Config.backend, opt with
    | Config.Ft, Some o ->
      let r = span "synthesis" (fun () -> Ph_opt.Phoenix_backend.synthesize_ft ~n_qubits o) in
      r.Emit.circuit, r.Emit.rotations, None, 0
    | Config.Ft, None ->
      let r = span "synthesis" (fun () -> Ft_backend.synthesize ~n_qubits layers) in
      r.Emit.circuit, r.Emit.rotations, None, 0
    | Config.Sc { coupling; noise }, _ ->
      let r =
        span "synthesis" (fun () ->
            match opt with
            | Some o -> Ph_opt.Phoenix_backend.synthesize_sc ~coupling ~n_qubits o
            | None -> Sc_backend.synthesize ?noise ~coupling ~n_qubits layers)
      in
      ( r.Sc_backend.circuit,
        r.Sc_backend.rotations,
        Some (r.Sc_backend.initial_layout, r.Sc_backend.final_layout),
        r.Sc_backend.swaps )
    | Config.Ion_trap, _ -> invalid_arg "layered: ion-trap is not benchmarked"
  in
  count mode (fun c ->
      c.gates_out <- c.gates_out + Circuit.length synthesized;
      c.swaps <- c.swaps + swaps);
  let routed =
    match layouts with
    | Some _ -> span "swap_decompose" (fun () -> Circuit.decompose_swaps synthesized)
    | None -> synthesized
  in
  let circuit, pstats =
    if config.Config.peephole then begin
      let before = Counter.snapshot () in
      let r = span "peephole" (fun () -> Peephole.optimize_stats routed) in
      let probes =
        find_counter "peephole_probes"
          (Counter.compile_assoc ~before ~after:(Counter.snapshot ()))
      in
      count mode (fun c ->
          c.peephole_probes <- c.peephole_probes + probes;
          c.peephole_removed <- c.peephole_removed + (snd r).Peephole.removed;
          c.peephole_rounds <- c.peephole_rounds + (snd r).Peephole.rounds);
      r
    end
    else routed, { Peephole.removed = 0; rounds = 0 }
  in
  let metrics = Report.of_circuit circuit in
  let perf = Counter.compile_assoc ~before:perf0 ~after:(Counter.snapshot ()) in
  let certificate =
    span "certificate" (fun () ->
        Certificate.build ~n_qubits
          ?opt:
            (Option.map
               (fun (o : Ph_opt.Pass.t) ->
                 {
                   Certificate.blocks_in = Program.block_count prog;
                   groups = o.Ph_opt.Pass.stats.Ph_opt.Pass.groups;
                   fused = o.Ph_opt.Pass.stats.Ph_opt.Pass.fused_blocks;
                 })
               opt)
          ~cnot:metrics.Report.cnot ~single:metrics.Report.single
          ~depth:metrics.Report.depth
          (List.map (fun l -> l.Layer.blocks) layers))
  in
  {
    Compiler.circuit;
    rotations;
    initial_layout = Option.map fst layouts;
    final_layout = Option.map snd layouts;
    metrics;
    trace =
      {
        Report.empty_trace with
        Report.counters =
          {
            Report.sched_layers = n_layers;
            sched_padded = padded;
            sched_window = window;
            sc_swaps = swaps;
            peephole_removed = pstats.Peephole.removed;
            peephole_rounds = pstats.Peephole.rounds;
          };
        perf;
      };
    certificate;
    opt_program = Option.map (fun (o : Ph_opt.Pass.t) -> o.Ph_opt.Pass.program) opt;
  }

(* Compile [prog] under [config] and certify the output: Pauli-frame
   check, then the schedule certificate replayed against the program
   the certificate covers (the post-opt one under Phoenix).  The record
   is labelled [name] / [config_name]. *)
let compile_checked mode ~job ~name ~config_name config prog =
  let out =
    match mode with
    | Direct -> Compiler.compile config prog
    | Traced _ -> layered mode ~job config prog
  in
  let verified = span mode ~job "verify" (fun () -> Batch.frame_verified out) in
  let cert_diags =
    span mode ~job "certificate_check" (fun () ->
        Certificate.check
          ~program:(Option.value out.Compiler.opt_program ~default:prog)
          ~metrics:
            ( out.Compiler.metrics.Report.cnot,
              out.Compiler.metrics.Report.single,
              out.Compiler.metrics.Report.depth )
          out.Compiler.certificate)
  in
  let record =
    {
      Report.bench = name;
      config = config_name;
      qubits = Program.n_qubits prog;
      paulis = Program.term_count prog;
      metrics = out.Compiler.metrics;
      trace = out.Compiler.trace;
    }
  in
  let failure =
    if not verified then Some "Pauli-frame check failed"
    else
      match cert_diags with
      | [] -> None
      | d :: _ -> Some ("certificate: " ^ Lint.Diag.to_string d)
  in
  record, compiled_of out, failure

let emit mode ~job record =
  span mode ~job "emit" (fun () ->
      let tree = Report.record_to_json (Report.normalize_record record) in
      tree, Json.to_string tree)

let parse mode ~job text = span mode ~job "parse" (fun () -> Parser.parse text)

let guard f =
  match f () with
  | r -> r
  | exception e ->
    { record_text = ""; compiled = None; failure = Some (Printexc.to_string e) }

(* A batch job: parse, compile, certify, emit the record. *)
let batch_op mode ~job (spec : Work.spec) =
  guard (fun () ->
      span mode ~job "op" (fun () ->
          let prog = parse mode ~job spec.Work.text in
          let record, compiled, failure =
            compile_checked mode ~job ~name:spec.Work.name
              ~config_name:spec.Work.config_name spec.Work.config prog
          in
          let _, text = emit mode ~job record in
          { record_text = text; compiled = Some compiled; failure }))

(* A serve request, in the daemon's order: decode the line, parse,
   probe the cache, compile and certify on a miss (storing only
   certified records), emit the record and encode the response.
   [cache] mirrors the daemon's. *)
let serve_op mode ~job ~cache line =
  guard (fun () ->
      span mode ~job "op" (fun () ->
          match span mode ~job "protocol" (fun () -> Protocol.request_of_line line) with
          | Error e -> failwith ("request_of_line: " ^ e.Protocol.message)
          | Ok (_, (Protocol.Stats | Protocol.Ping | Protocol.Shutdown)) ->
            failwith "not a compile request"
          | Ok (id, Protocol.Compile req) ->
            let name = req.Protocol.name in
            let config =
              match
                Protocol.config_for ~backend:req.Protocol.backend
                  ~device:req.Protocol.device ~schedule:req.Protocol.schedule
                  ~lint:req.Protocol.lint ~window:req.Protocol.window ()
              with
              | Ok c -> c
              | Error (`Msg m) -> failwith m
            in
            let config_name =
              Protocol.config_name ~backend:req.Protocol.backend
                ~device:req.Protocol.device ~schedule:req.Protocol.schedule
            in
            let prog = parse mode ~job req.Protocol.source in
            let key, hit =
              span mode ~job "cache" (fun () ->
                  let key =
                    Cache.key
                      ~config_fp:(Config.fingerprint config)
                      ~text:(Batch.canonical_text prog)
                  in
                  key, Option.bind (Cache.find cache key) Batch.record_of_payload)
            in
            count mode (fun c ->
                c.cache_lookups <- c.cache_lookups + 1;
                if hit <> None then c.cache_hits <- c.cache_hits + 1);
            let record, compiled, failure, origin =
              match hit with
              | Some r ->
                ( { r with Report.bench = name; config = config_name },
                  None,
                  None,
                  "cache" )
              | None ->
                let record, compiled, failure =
                  compile_checked mode ~job ~name ~config_name config prog
                in
                if failure = None then
                  span mode ~job "cache" (fun () ->
                      Cache.store cache key (Batch.payload_of_record record));
                record, Some compiled, failure, "compiled"
            in
            let tree, text = emit mode ~job record in
            ignore
              (span mode ~job "protocol" (fun () ->
                   Json.to_string
                     (Protocol.ok ~id [ "origin", Json.String origin; "record", tree ])));
            { record_text = text; compiled; failure }))
