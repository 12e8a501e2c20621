(* End-to-end QAOA MaxCut on a Melbourne-class device (the Section 6.4
   workflow): build the problem kernel, optimize (γ, β) noiselessly,
   compile with Paulihedral and with a generic baseline, and compare
   estimated and simulated success probabilities under device noise.

     dune exec examples/qaoa_maxcut.exe *)

open Paulihedral
open Ph_benchmarks
open Ph_hardware

let () =
  let graph = Graphs.regular ~seed:410 10 4 in
  Printf.printf "MaxCut on a random 4-regular graph: %d nodes, %d edges, optimum %.0f\n"
    graph.Graphs.n (Graphs.n_edges graph) (Graphs.max_cut graph);

  (* Parameter search is algorithm-level: a noiseless logical grid
     scan. *)
  let gamma, beta = Ph_sim.Qaoa_run.optimize_parameters ~grid:16 graph in
  Printf.printf "optimized parameters: gamma=%.3f beta=%.3f\n" gamma beta;

  let program = Qaoa.maxcut graph ~gamma in
  let device = Devices.melbourne in
  let noise = Noise_model.calibrated device ~seed:42 ~cnot:0.02 ~readout:3e-2 () in

  let kernel_of (r : Pipelines.run) =
    {
      Ph_sim.Qaoa_run.phase = r.Pipelines.circuit;
      initial_layout = Option.get r.Pipelines.initial_layout;
      final_layout = Option.get r.Pipelines.final_layout;
    }
  in
  let evaluate name (r : Pipelines.run) =
    let m = r.Pipelines.metrics in
    let outcome =
      Ph_sim.Qaoa_run.evaluate ~noise ~trajectories:600 ~seed:1 graph (kernel_of r)
        ~beta
    in
    Printf.printf "%-10s cnot=%-4d depth=%-4d ESP=%.3f  success=%.3f  (verified=%b)\n"
      name m.Report.cnot m.Report.depth outcome.Ph_sim.Qaoa_run.esp
      outcome.Ph_sim.Qaoa_run.success (Pipelines.verified r);
    outcome
  in
  Printf.printf "\ncompiling for the 16-qubit Melbourne topology...\n";
  let ph = evaluate "PH" (Pipelines.ph (Config.sc ~noise device) program) in
  (* Baseline: adjacency-order synthesis + trivial-layout routing, the
     generic-compiler strength of the paper's study (see bench fig11). *)
  let base = evaluate "generic" (Pipelines.naive_sc_trivial device program) in
  Printf.printf "\nPH / generic success ratio: %.2fx\n"
    (ph.Ph_sim.Qaoa_run.success /. base.Ph_sim.Qaoa_run.success)
