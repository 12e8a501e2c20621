(** The request-to-record path, and fault-isolated batch compilation
    over the domain pool.

    Every compile service — [phc batch] ({!run}), the serve daemon,
    [phc compile] / [analyze] and the bench harness — turns a request
    into a record or a staged failure through the same functions:
    {!parse}, then {!cache_key} and {!lookup} (a hit is relabeled to the
    requester's [bench] and [config]), then {!compile_checked}
    ([Compiler.compile], the lint-error gate, {!frame_verified}, then
    {!record}).  So the services accept the same inputs, share cache
    entries and report byte-identical records.

    A batch is an ordered list of textual Pauli IR jobs compiled under
    one {!Paulihedral.Config}.  The coordinator parses every job,
    answers what it can from the compile cache (and coalesces duplicate
    keys within the batch), dispatches the remaining compiles to a
    {!Pool} of worker domains, then reassembles everything in submission
    order — so the result list, and the default (timing-normalized) JSON
    report, are byte-identical whatever [jobs] was.

    Per-job fault isolation: a parse error, a raised exception, an
    error-severity lint finding (under [Config.lint = Error_level]) or a
    Pauli-frame verification failure turns into a structured {!Failed}
    result for that job; the rest of the batch completes. *)

open Paulihedral

type job = {
  id : int;  (** submission index, 0-based *)
  name : string;  (** record [bench] field (file basename, bench label) *)
  source : string;  (** textual Pauli IR *)
  params : (string * float) list;  (** parser environment *)
}

(** [job ~id ~name ?params source]. *)
val job :
  id:int -> name:string -> ?params:(string * float) list -> string -> job

type job_result =
  | Ok of Report.record
  | Failed of { job_id : int; stage : string; message : string }
      (** [stage] is one of [parse] / [compile] / [lint] / [verify] *)

(** How a job's result was obtained: compiled in this batch, served from
    the cache, or coalesced onto an identical in-batch job's compile. *)
type origin = Compiled | From_cache | Coalesced

type outcome = { job : job; result : job_result; origin : origin }

type t = {
  outcomes : outcome list;  (** submission order *)
  stats : Report.batch;
  cache_counters : Cache.counters option;
      (** cache traffic of this batch ([None] when run uncached) *)
}

(** Compile-cache payload codec shared by every cache writer (batch,
    serve daemon, bench harness), so their entries are mutually
    readable.  Only verified records may be stored;
    {!record_of_payload} returns [None] unless the payload carries the
    explicit [verified] marker and a well-formed record. *)

val payload_of_record : Report.record -> Json.t
val record_of_payload : Json.t -> Report.record option

(** Canonical cache-key text of a program: the concrete Pauli IR syntax
    with every block parameter printed as its resolved numeric value
    (symbolic labels erased), so equal-semantics sources address equal
    cache entries. *)
val canonical_text : Ph_pauli_ir.Program.t -> string

(** {1 The request-to-record path} *)

(** [parse ~params source] — [Error message] when the parser raises
    ([Parse_error] or any other exception): the [parse] stage of every
    service. *)
val parse :
  params:(string * float) list ->
  string ->
  (Ph_pauli_ir.Program.t, string) result

(** Compile-cache key of [program] under [config]:
    [Config.fingerprint] plus {!canonical_text}.  [None] when the config
    is not [Config.cacheable] — such compiles bypass the cache. *)
val cache_key : Config.t -> Ph_pauli_ir.Program.t -> string option

(** [lookup cache key ~bench ~config_name] — the verified record stored
    under [key], relabeled to the requester's [bench] and [config]
    (another service, or another device with the same fingerprint, may
    have stored it under its own names). *)
val lookup :
  Cache.t -> string -> bench:string -> config_name:string -> Report.record option

(** The record of one compile: row identity [bench] / [config_name],
    the program's size, and the output's metrics and trace. *)
val record :
  bench:string ->
  config_name:string ->
  Ph_pauli_ir.Program.t ->
  Compiler.output ->
  Report.record

(** Pauli-frame certification of one compile output
    ([Ph_verify.Pauli_frame.verify]): SC outputs verify against their
    qubit layouts, FT / ion-trap outputs against the rotation trace. *)
val frame_verified : Compiler.output -> bool

(** [compile_checked ?verify ~config ~bench ~config_name program] —
    [Compiler.compile], then the lint-error gate (under
    [Config.lint = Error_level]), then {!frame_verified} when [verify]
    (default [true]), then {!record}.  A failure is [Error (stage,
    message)] with [stage] one of [compile] / [lint] / [verify].  Only an
    [Ok] record checked with [verify] may go into the cache. *)
val compile_checked :
  ?verify:bool ->
  config:Config.t ->
  bench:string ->
  config_name:string ->
  Ph_pauli_ir.Program.t ->
  (Report.record, string * string) result

(** {1 Batches} *)

(** [run ?cache ?jobs ?verify ~config ~config_name batch].  [jobs]
    (default 1) sizes the worker pool; [verify] (default [true]) runs
    the Pauli-frame verifier on every compiled job.  Compiled [Ok]
    records are stored into [cache] only under [verify] (a
    [verify = false] run still reads it); hits are relabeled to the
    job's name and [config_name].  When [Config.cacheable config] is
    false the cache is bypassed entirely. *)
val run :
  ?cache:Cache.t ->
  ?jobs:int ->
  ?verify:bool ->
  config:Config.t ->
  config_name:string ->
  job list ->
  t

val ok_count : t -> int
val failed : t -> outcome list

(** JSON report.  [timings = false] (the default) normalizes every
    record ({!Report.normalize_record}) and zeroes the batch wall-clock
    fields, making the report a pure function of (sources, config,
    prior cache state) — byte-diffable across [--jobs] values and
    warm-cache reruns. *)
val report_json : ?timings:bool -> t -> Json.t
