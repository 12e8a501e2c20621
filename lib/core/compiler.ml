open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_schedule
open Ph_synthesis

type output = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t option;
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
  certificate : Ph_analysis.Certificate.t;
  opt_program : Program.t option;
}

let lint_errors o = Ph_lint.Diag.errors o.trace.Report.lint

let schedule_layers config prog =
  let window = config.Config.window in
  let jobs = config.Config.sched_jobs in
  match config.Config.schedule with
  | Config.Program_order | Config.Phoenix_like ->
    (* under Phoenix [prog] is the post-opt program: [Ph_opt.Pass]
       already fixed the block order (GCO-sorted within each Clifford
       frame), so the layers are its blocks verbatim *)
    let layers = List.map Layer.of_block (Program.blocks prog) in
    layers, (List.length layers, 0)
  | Config.Gco ->
    let layers = Gco.schedule prog in
    layers, (List.length layers, 0)
  | Config.Depth_oriented ->
    let layers, stats = Depth_oriented.schedule_stats ~window ~jobs prog in
    layers, (stats.Depth_oriented.layers, stats.Depth_oriented.padded)
  | Config.Max_overlap ->
    let layers = Max_overlap.schedule ~window ~jobs prog in
    layers, (List.length layers, 0)

let generic_stage ?(peephole = true) clock synthesized =
  let circuit, rotations, initial_layout, final_layout, sc_swaps =
    match synthesized with
    | `Logical (r : Emit.result) -> r.Emit.circuit, r.Emit.rotations, None, None, 0
    | `Routed (r : Sc_backend.result) ->
      ( Report.time clock "swap" (fun () -> Circuit.decompose_swaps r.Sc_backend.circuit),
        r.Sc_backend.rotations,
        Some r.Sc_backend.initial_layout,
        Some r.Sc_backend.final_layout,
        r.Sc_backend.swaps )
  in
  let circuit, (pstats : Peephole.stats) =
    if peephole then Report.time clock "peephole" (fun () -> Peephole.optimize_stats circuit)
    else circuit, { Peephole.removed = 0; rounds = 0 }
  in
  ( { Emit.circuit; rotations },
    initial_layout,
    final_layout,
    {
      Report.sched_layers = 0;
      sched_padded = 0;
      sched_window = 0;
      sc_swaps;
      peephole_removed = pstats.Peephole.removed;
      peephole_rounds = pstats.Peephole.rounds;
    } )

let compile config prog =
  (match config.Config.backend, config.Config.schedule with
  | Config.Ion_trap, Config.Phoenix_like ->
    invalid_arg
      "Compiler.compile: schedule phoenix is not supported on the ion-trap \
       backend"
  | _ -> ());
  (* Counter hygiene before any allocation baseline is sampled: the
     domain-local counter array must already exist (its one-time DLS
     setup would otherwise be charged to the first compile each domain
     runs, breaking --jobs 1 vs --jobs N byte-identity), and the
     coupling map's lazy all-pairs BFS must be forced for the same
     reason — shared device values are warmed by whichever compile gets
     there first. *)
  Ph_perf.Counter.touch ();
  (match config.Config.backend with
  | Config.Sc { coupling; _ } ->
    if Coupling.n_qubits coupling > 0 then
      ignore (Coupling.distance coupling 0 0)
  | Config.Ft | Config.Ion_trap -> ());
  let perf0 = Ph_perf.Counter.snapshot () in
  let t0 = Unix.gettimeofday () in
  let clock = Report.clock () in
  let time stage f = Report.time clock stage f in
  (* the verify-each checkers: when linting is enabled, each one is
     timed into the [lint] span and its findings appended in stage
     order *)
  let diags = ref [] in
  let lint_run check =
    if config.Config.lint <> Ph_lint.Diag.Off then
      diags := !diags @ time "lint" check
  in
  (* stage -1: the configuration itself *)
  lint_run (fun () ->
      let backend_view =
        match config.Config.backend with
        | Config.Ft -> Ph_lint.Check_config.Ft_view
        | Config.Sc { coupling; _ } -> Ph_lint.Check_config.Sc_view coupling
        | Config.Ion_trap -> Ph_lint.Check_config.Ion_trap_view
      in
      Ph_lint.Check_config.check ~backend:backend_view
        ~peephole:config.Config.peephole);
  (* stage 0: the input Pauli IR *)
  lint_run (fun () -> Ph_lint.Check_ir.program prog);
  (* stage 0.5 (Phoenix only): the high-level IR optimizer — grouping,
     simultaneous diagonalization, fusion.  Everything downstream of
     this point (scheduling, lint, the certificate) sees the rewritten
     program. *)
  let opt =
    match config.Config.schedule with
    | Config.Phoenix_like -> Some (time "opt" (fun () -> Ph_opt.Pass.run prog))
    | _ -> None
  in
  let sched_program =
    match opt with Some o -> o.Ph_opt.Pass.program | None -> prog
  in
  (match opt with
  | Some o -> lint_run (fun () -> Ph_lint.Check_ir.program o.Ph_opt.Pass.program)
  | None -> ());
  (* stage 1: block scheduling *)
  let layers, (sched_layers, sched_padded) =
    time "schedule" (fun () -> schedule_layers config sched_program)
  in
  lint_run (fun () -> Ph_lint.Check_schedule.check ~program:sched_program layers);
  (* stage 2: backend synthesis, its lint checkpoints, then the generic
     stage (SWAP decomposition on SC, peephole cleanup) *)
  let n_qubits = Program.n_qubits prog in
  let logical (r : Emit.result) =
    lint_run (fun () -> Ph_lint.Check_gates.circuit r.Emit.circuit);
    `Logical r
  in
  let synthesized =
    match config.Config.backend, opt with
    | Config.Ft, Some o ->
      logical (time "synthesis" (fun () -> Ph_opt.Phoenix_backend.synthesize_ft ~n_qubits o))
    | Config.Ft, None ->
      logical (time "synthesis" (fun () -> Ft_backend.synthesize ~n_qubits layers))
    | Config.Sc { coupling; noise }, _ ->
      let r =
        time "synthesis" (fun () ->
            match opt with
            | Some o ->
              (* a noise model only disables caching upstream; the
                 Phoenix router is distance-driven *)
              Ph_opt.Phoenix_backend.synthesize_sc ~coupling ~n_qubits o
            | None -> Sc_backend.synthesize ?noise ~coupling ~n_qubits layers)
      in
      lint_run (fun () -> Ph_lint.Check_gates.circuit r.Sc_backend.circuit);
      lint_run (fun () ->
          Ph_lint.Check_sc.check ~coupling ~initial:r.Sc_backend.initial_layout
            ~final:r.Sc_backend.final_layout ~claimed_swaps:r.Sc_backend.swaps
            r.Sc_backend.circuit);
      `Routed r
    | Config.Ion_trap, _ ->
      logical (time "synthesis" (fun () -> Ion_trap.synthesize ~n_qubits layers))
  in
  (* ion-trap lowering already interleaves its own cleanup passes, so
     the generic stage runs no peephole there (Config.ion_trap defaults
     [peephole = false], and CFG001 warns when a config claims
     otherwise) *)
  let peephole =
    match config.Config.backend with Config.Ion_trap -> false | _ -> config.Config.peephole
  in
  let lowered, initial_layout, final_layout, counters =
    generic_stage ~peephole clock synthesized
  in
  let circuit = lowered.Emit.circuit and rotations = lowered.Emit.rotations in
  let counters =
    { counters with Report.sched_layers; sched_padded; sched_window = config.Config.window }
  in
  (* stage 4: the final circuit — structural invariants must have
     survived SWAP decomposition and cleanup, and the Pauli-frame
     spot-check ties the whole pipeline back to the rotation trace *)
  lint_run (fun () ->
      Ph_lint.Check_gates.circuit ~post_peephole:config.Config.peephole circuit);
  lint_run (fun () ->
      let layouts =
        match initial_layout, final_layout with
        | Some i, Some f -> Some (i, f)
        | _ -> None
      in
      Ph_lint.Check_frame.check ?layouts ~rotations circuit);
  let metrics = Report.of_circuit circuit in
  (* stage 5 (opt-in): the static analyzer — bounds and gap diagnostics
     run inside the compile window so their work counters land in
     [trace.perf] and its own [analysis] span; findings are appended
     regardless of the lint level ([Config.analyze] is its own switch) *)
  let analysis =
    if config.Config.analyze then begin
      let summary, ana_diags =
        time "analysis" (fun () ->
            let bounds = Ph_analysis.Bounds.of_program prog in
            let summary =
              Ph_analysis.Gap.summarize ~cnot:metrics.Report.cnot
                ~single:metrics.Report.single ~total:metrics.Report.total
                ~depth:metrics.Report.depth bounds
            in
            ( summary,
              Ph_analysis.Gap.diagnose ~threshold:config.Config.gap_threshold
                summary ))
      in
      diags := !diags @ ana_diags;
      Some summary
    end
    else None
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let perf1 = Ph_perf.Counter.snapshot () in
  let perf = Ph_perf.Counter.compile_assoc ~before:perf0 ~after:perf1 in
  (* The certificate is built outside the perf window: digesting blocks
     is bookkeeping about the schedule, not compilation work. *)
  let certificate =
    let opt_acc =
      Option.map
        (fun (o : Ph_opt.Pass.t) ->
          {
            Ph_analysis.Certificate.blocks_in = Program.block_count prog;
            groups = o.Ph_opt.Pass.stats.Ph_opt.Pass.groups;
            fused = o.Ph_opt.Pass.stats.Ph_opt.Pass.fused_blocks;
          })
        opt
    in
    Ph_analysis.Certificate.build ~n_qubits:(Program.n_qubits prog) ?opt:opt_acc
      ~cnot:metrics.Report.cnot ~single:metrics.Report.single
      ~depth:metrics.Report.depth
      (List.map (fun l -> l.Layer.blocks) layers)
  in
  {
    circuit;
    rotations;
    initial_layout;
    final_layout;
    metrics = { metrics with Report.seconds };
    trace =
      { Report.spans = Report.spans clock; counters; lint = !diags; perf; analysis };
    certificate;
    opt_program = Option.map (fun (o : Ph_opt.Pass.t) -> o.Ph_opt.Pass.program) opt;
  }
