(** The evaluation's metrics (CNOT / single-qubit / total gate counts and
    circuit depth, Section 6.1), per-pass telemetry, and table/JSON
    formatting helpers. *)

open Ph_gatelevel

type metrics = {
  cnot : int;
  single : int;
  total : int;
  depth : int;
  seconds : float;  (** compilation wall time *)
}

(** Counts of a lowered circuit (SWAPs as 3 CNOTs / depth 3). *)
val of_circuit : ?seconds:float -> Circuit.t -> metrics

(** [timed f] runs [f ()] and returns its result with the elapsed time. *)
val timed : (unit -> 'a) -> 'a * float

(** {1 Stage spans} *)

(** One compile stage: its wall time and the words it allocated.
    [alloc_words] is the [Gc.minor_words] delta of the calling domain
    across the stage — exact, so reproducible for a fixed compiler
    binary (it still shifts across compiler versions, which is why the
    history gate never gates [alloc_*] rows).  A stage timed more than
    once in one compile (the lint checkers between passes) is one span
    holding the sums. *)
type span = { stage : string; wall_s : float; alloc_words : int }

(** The compile stages in report order:
    [opt; schedule; synthesis; swap; peephole; lint]. *)
val stages : string list

(** Collects the spans of one compile. *)
type clock

val clock : unit -> clock

(** [time clock stage f] runs [f ()] and adds its wall time and
    allocation to [stage]'s span. *)
val time : clock -> string -> (unit -> 'a) -> 'a

(** Every stage of {!stages} in order — a zero span for a stage that was
    never timed — then any other stage (e.g. [analysis]) in the order it
    was first timed. *)
val spans : clock -> span list

(** The span of [stage]; a zero span when the list has none. *)
val span_of : span list -> string -> span

(** [delta a b] — percentage change of [b] relative to [a]
    ([(b − a) / a · 100]); [nan] when [a = 0]. *)
val delta : int -> int -> float

(** Geometric mean of positive ratios. *)
val geomean : float list -> float

val pp_metrics : Format.formatter -> metrics -> unit

(** {1 Per-pass telemetry}

    Counters are owned by the passes themselves
    ([Ph_schedule.Depth_oriented.schedule_stats],
    [Ph_synthesis.Sc_backend] result, [Ph_gatelevel.Peephole.optimize_stats])
    and collected into a {!trace} by [Compiler.generic_stage]; zero means
    the pass did not run in the chosen configuration. *)

type pass_counters = {
  sched_layers : int;  (** layers formed by the scheduling pass *)
  sched_padded : int;  (** padding blocks packed by depth-oriented scheduling *)
  sched_window : int;  (** [Config.window] scan bound the schedulers ran with *)
  sc_swaps : int;  (** SWAPs the SC backend or router inserted (pre-decomposition) *)
  peephole_removed : int;  (** gates removed (cancelled + merged) by peephole *)
  peephole_rounds : int;  (** peephole passes until fixpoint *)
}

(** The stage spans of one compile, plus the counters and any lint
    diagnostics the per-stage checkers reported ([lint = []] when
    [Config.lint = Off]). *)
type trace = {
  spans : span list;
      (** {!stages} in order, then [analysis] when the compile ran with
          [Config.analyze]; baseline pipelines report the stages they
          ran *)
  counters : pass_counters;
  lint : Ph_lint.Diag.t list;  (** stage order: config, IR, schedule,
                                   synthesis, hardware, final circuit *)
  perf : (string * int) list;
      (** deterministic work counters: the [Ph_perf.Counter]
          compile-scope deltas sampled by [Compiler.compile], in fixed
          declaration order.  Bit-identical across runs, [--jobs]
          settings and machines; [[]] in baseline-stage traces *)
  analysis : Ph_analysis.Gap.summary option;
      (** static lower bounds and gap ratios — [Some] when the compile
          ran with [Config.analyze] or a driver (bench, history record)
          attached a post-hoc analysis; [None] otherwise *)
}

val empty_trace : trace

(** One row of a machine-readable bench report: benchmark × config
    identity, program size, end metrics and the per-stage trace. *)
type record = {
  bench : string;
  config : string;
  qubits : int;
  paulis : int;
  metrics : metrics;
  trace : trace;
}

val counters_to_json : pass_counters -> Json.t
val trace_to_json : trace -> Json.t
val record_to_json : record -> Json.t

(** Inverses of the encoders, for [bench compare].
    @raise Json.Parse_error on schema mismatch. *)

val trace_of_json : Json.t -> trace

val record_of_json : Json.t -> record

(** Zero every wall-clock field of the record (metrics seconds, span
    wall times), leaving only data that is a pure function of (program,
    config).  The batch service reports normalized records by default so
    [--jobs N] output is byte-identical to [--jobs 1] and to a warm-cache
    rerun.  Span [alloc_words] and [trace.perf] are kept: both are
    deterministic, so byte-identity checks over normalized records also
    prove their determinism. *)
val normalize_record : record -> record

(** One {!Ph_perf.Db} row per deterministic quantity of the record —
    circuit metrics ([cnot]/[single]/[total]/[depth]), the per-pass
    counters except the configuration echo [sched_window], every
    [trace.perf] entry, then [alloc_<stage>_words] per span.  [seconds]
    and span wall times are never rows. *)
val perf_rows : commit:string -> record -> Ph_perf.Db.row list

(** {1 Batch aggregation}

    Telemetry of one pooled batch-compilation run ([Ph_pool.Batch]):
    per-job wall times and queue waits in submission order, plus the
    cache outcome counts. *)

type batch = {
  batch_jobs : int;  (** jobs submitted *)
  batch_workers : int;  (** worker domains that served the queue *)
  batch_wall_s : float;  (** end-to-end batch wall time *)
  job_wall_s : float list;  (** per-job run time, submission order *)
  job_queue_s : float list;  (** per-job queue wait, submission order *)
  cache_hits : int;  (** memory + disk + in-batch coalesced *)
  cache_misses : int;
}

(** Fraction of jobs answered by the cache ([0.] when nothing was
    looked up, i.e. the batch ran uncached). *)
val batch_hit_rate : batch -> float

(** [timings = false] zeroes the wall-clock fields and the worker count
    (both are properties of the run environment, not of the work), so
    the object is identical across [--jobs] values; the job and cache
    counts are deterministic either way. *)
val batch_to_json : ?timings:bool -> batch -> Json.t
