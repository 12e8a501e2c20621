open Ph_pauli
open Ph_gatelevel
open Ph_hardware
open Ph_synthesis
open Ph_baselines

type run = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t option;
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
}

let of_output (o : Compiler.output) =
  {
    circuit = o.circuit;
    rotations = o.rotations;
    initial_layout = o.initial_layout;
    final_layout = o.final_layout;
    metrics = o.metrics;
    trace = o.trace;
  }

let ph config prog = of_output (Compiler.compile config prog)

(* Trace of a baseline stage: synthesis + peephole only (plus SWAP
   decomposition on SC); scheduling counters stay zero. *)
let baseline_trace clock ?(sc_swaps = 0) (pstats : Peephole.stats) =
  {
    Report.empty_trace with
    Report.spans = Report.spans clock;
    counters =
      {
        Report.empty_counters with
        Report.sc_swaps;
        peephole_removed = pstats.Peephole.removed;
        peephole_rounds = pstats.Peephole.rounds;
      };
  }

let ft_stage synthesize prog =
  let t0 = Unix.gettimeofday () in
  let clock = Report.clock () in
  let (r : Emit.result) = Report.time clock "synthesis" (fun () -> synthesize prog) in
  let circuit, pstats =
    Report.time clock "peephole" (fun () -> Peephole.optimize_stats r.circuit)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  {
    circuit;
    rotations = r.rotations;
    initial_layout = None;
    final_layout = None;
    metrics = Report.of_circuit ~seconds circuit;
    trace = baseline_trace clock pstats;
  }

let count_swaps circuit =
  Array.fold_left
    (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
    0 (Circuit.gates circuit)

(* SWAP decomposition and cleanup of a routed baseline circuit *)
let sc_finish clock ~t0 ~rotations ~initial_layout ~final_layout routed =
  let decomposed = Report.time clock "swap" (fun () -> Circuit.decompose_swaps routed) in
  let circuit, pstats =
    Report.time clock "peephole" (fun () -> Peephole.optimize_stats decomposed)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  {
    circuit;
    rotations;
    initial_layout = Some initial_layout;
    final_layout = Some final_layout;
    metrics = Report.of_circuit ~seconds circuit;
    trace = baseline_trace clock ~sc_swaps:(count_swaps routed) pstats;
  }

(* routing counts as part of the synthesis stage *)
let sc_stage synthesize coupling prog =
  let t0 = Unix.gettimeofday () in
  let clock = Report.clock () in
  let (r : Emit.result) = Report.time clock "synthesis" (fun () -> synthesize prog) in
  let routed =
    Report.time clock "synthesis" (fun () -> Router.route ~coupling r.circuit)
  in
  sc_finish clock ~t0 ~rotations:r.rotations
    ~initial_layout:routed.Router.initial_layout
    ~final_layout:routed.Router.final_layout routed.Router.circuit

let tk_ft ?strategy prog = ft_stage (Tk_like.compile ?strategy) prog
let tk_sc ?strategy coupling prog = sc_stage (Tk_like.compile ?strategy) coupling prog
let naive_ft prog = ft_stage Naive.synthesize prog
let naive_sc coupling prog = sc_stage Naive.synthesize coupling prog

let qaoa_sc coupling prog =
  let t0 = Unix.gettimeofday () in
  let clock = Report.clock () in
  let r =
    Report.time clock "synthesis" (fun () -> Qaoa_compiler.compile ~coupling prog)
  in
  sc_finish clock ~t0 ~rotations:r.Qaoa_compiler.rotations
    ~initial_layout:r.Qaoa_compiler.initial_layout
    ~final_layout:r.Qaoa_compiler.final_layout r.Qaoa_compiler.circuit

let verified run =
  let layouts =
    match run.initial_layout, run.final_layout with
    | Some initial, Some final -> Some (initial, final)
    | _ -> None
  in
  Ph_verify.Pauli_frame.verify ?layouts ~trace:run.rotations run.circuit
