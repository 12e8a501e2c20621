(** Paulihedral's public compile driver: Pauli IR program in, verified
    lowered circuit out.

    The flow mirrors Figure 1: a technology-independent block scheduling
    pass (GCO or DO) followed by a technology-dependent block-wise
    synthesis pass (FT or SC backend), then the generic gate-level
    cleanup.  The output carries the rotation trace and layouts so the
    [Ph_verify] checkers can certify the compilation. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware

type output = {
  circuit : Circuit.t;
      (** lowered circuit; on the SC backend SWAPs are already decomposed
          into CNOTs *)
  rotations : (Pauli_string.t * float) list;
      (** logical rotation trace, emission order *)
  initial_layout : Layout.t option;  (** SC backend only *)
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
      (** stage spans and pass counters of this compile *)
  certificate : Ph_analysis.Certificate.t;
      (** proof-carrying schedule certificate, emitted on every compile;
          [Ph_analysis.Certificate.check] replays it against the input
          program with no dependency on the scheduler.  Under
          [Phoenix_like] the certified multiset is the {e post-opt}
          program's — replay against {!field-opt_program}. *)
  opt_program : Program.t option;
      (** the rewritten program when the Phoenix IR optimizer ran
          ([Config.schedule = Phoenix_like]); [None] otherwise *)
}

(** The generic low-level stage every configuration lowers through —
    Paulihedral on each backend, every {!Pipelines} baseline, the bench
    ablations — so their gate counts compare like for like (the role
    Qiskit L3 plays in the paper).  A [`Routed] circuit (SC: SWAPs not
    yet decomposed) has its SWAPs decomposed in [clock]'s [swap] span;
    then, unless [peephole = false] (default [true]),
    [Peephole.optimize_stats] runs in the [peephole] span.  Returns the
    lowered circuit with the rotation trace, the initial and final
    layouts ([`Routed] only), and the pass counters: [sc_swaps] from the
    routed result, the peephole's removals and rounds, and zero
    scheduling counters (a scheduling caller fills them in). *)
val generic_stage :
  ?peephole:bool ->
  Report.clock ->
  [ `Logical of Ph_synthesis.Emit.result | `Routed of Ph_synthesis.Sc_backend.result ] ->
  Ph_synthesis.Emit.result * Layout.t option * Layout.t option * Report.pass_counters

(** [compile config program].  When [config.lint] is [Warn] or
    [Error_level], every stage boundary runs its [Ph_lint] checker
    (config consistency, IR well-formedness, schedule permutation and
    layer commutation, gate invariants, SC coupling/layout replay, and
    the final Pauli-frame spot-check); findings and checker time land in
    [trace.lint] / the [lint] span.  Linting never raises — drivers
    decide what is fatal (see {!lint_errors}). *)
val compile : Config.t -> Program.t -> output

(** Error-severity lint findings of a compile ([[]] when linting was
    off or clean). *)
val lint_errors : output -> Ph_lint.Diag.t list
