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

(* A baseline pipeline: [synthesize] times its own calls into the
   [synthesis] span (routing included), then the generic stage;
   scheduling counters stay zero. *)
let baseline synthesize =
  let t0 = Unix.gettimeofday () in
  let clock = Report.clock () in
  let lowered, initial_layout, final_layout, counters =
    Compiler.generic_stage clock (synthesize clock)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  {
    circuit = lowered.Emit.circuit;
    rotations = lowered.Emit.rotations;
    initial_layout;
    final_layout;
    metrics = Report.of_circuit ~seconds lowered.Emit.circuit;
    trace = { Report.empty_trace with Report.spans = Report.spans clock; counters };
  }

let ft synthesize prog =
  baseline (fun clock -> `Logical (Report.time clock "synthesis" (fun () -> synthesize prog)))

(* a routed circuit under the SC backend's contract: SWAPs not yet
   decomposed, counted here *)
let routed ~rotations circuit initial_layout final_layout =
  `Routed
    {
      Sc_backend.circuit;
      rotations;
      initial_layout;
      final_layout;
      swaps = Circuit.swap_count circuit;
    }

let sc ?initial ?lookahead synthesize coupling prog =
  baseline (fun clock ->
      let (r : Emit.result) = Report.time clock "synthesis" (fun () -> synthesize prog) in
      let rr =
        Report.time clock "synthesis" (fun () ->
            Router.route ?initial ?lookahead ~coupling r.circuit)
      in
      routed ~rotations:r.rotations rr.Router.circuit rr.Router.initial_layout
        rr.Router.final_layout)

let tk_ft ?strategy prog = ft (Tk_like.compile ?strategy) prog
let tk_sc ?strategy coupling prog = sc (Tk_like.compile ?strategy) coupling prog
let naive_ft prog = ft Naive.synthesize prog
let naive_sc coupling prog = sc Naive.synthesize coupling prog

let naive_sc_trivial coupling prog =
  sc ~initial:`Identity ~lookahead:1 Naive.synthesize coupling prog

let qaoa_sc coupling prog =
  baseline (fun clock ->
      let r =
        Report.time clock "synthesis" (fun () -> Qaoa_compiler.compile ~coupling prog)
      in
      routed ~rotations:r.Qaoa_compiler.rotations r.Qaoa_compiler.circuit
        r.Qaoa_compiler.initial_layout r.Qaoa_compiler.final_layout)

let verified run =
  let layouts =
    match run.initial_layout, run.final_layout with
    | Some initial, Some final -> Some (initial, final)
    | _ -> None
  in
  Ph_verify.Pauli_frame.verify ?layouts ~trace:run.rotations run.circuit
