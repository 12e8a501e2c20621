(* Batch coordinator.  All nondeterminism (which worker runs which job,
   completion order, wall clocks) is confined to the pool dispatch in
   the middle: parsing, cache lookups, coalescing, result assembly and
   cache stores all happen on the coordinator in submission order, so
   every counter and every result slot is a pure function of
   (sources, config, prior cache state). *)

open Paulihedral
module Parser = Ph_pauli_ir.Parser
module Program = Ph_pauli_ir.Program

type job = {
  id : int;
  name : string;
  source : string;
  params : (string * float) list;
}

let job ~id ~name ?(params = []) source = { id; name; source; params }

type job_result =
  | Ok of Report.record
  | Failed of { job_id : int; stage : string; message : string }

type origin = Compiled | From_cache | Coalesced

type outcome = { job : job; result : job_result; origin : origin }

type t = {
  outcomes : outcome list;
  stats : Report.batch;
  cache_counters : Cache.counters option;
}

let ok_count t =
  List.length
    (List.filter (fun o -> match o.result with Ok _ -> true | Failed _ -> false)
       t.outcomes)

let failed t =
  List.filter (fun o -> match o.result with Failed _ -> true | Ok _ -> false)
    t.outcomes

(* Canonical key text: the concrete syntax with every parameter printed
   as its resolved numeric value.  [Parser.to_text] keeps symbolic
   labels (it must round-trip), which would make the key depend on
   label spelling and miss the [--param] bindings entirely. *)
let canonical_text prog =
  let buf = Buffer.create 256 in
  List.iter
    (fun b ->
      Ph_pauli_ir.Block.to_buffer ~param:`Value ~sorted:false buf b;
      Buffer.add_string buf ";\n")
    (Program.blocks prog);
  Buffer.contents buf

(* ---------- cache payload ---------- *)

(* Only verified compiles are stored, and the [verified] field says so
   explicitly, so a payload can never be mistaken for an unchecked
   result.  The shape is shared by every cache writer (batch, serve,
   bench) so their entries are mutually readable. *)
let payload_of_record record =
  Json.Obj [ "verified", Json.Bool true; "record", Report.record_to_json record ]

let record_of_payload payload =
  match Json.member "verified" payload, Json.member "record" payload with
  | Some (Json.Bool true), Some r -> (
    try Some (Report.record_of_json r) with Json.Parse_error _ -> None)
  | _ -> None

(* ---------- the request-to-record path ---------- *)

(* Every service (batch, serve, phc, bench) turns a request into a record
   or a staged failure through these functions, so they accept the same
   inputs, key the cache the same way and report the same record. *)

let parse ~params source =
  match Parser.parse ~params source with
  | program -> Stdlib.Ok program
  | exception Parser.Parse_error m -> Stdlib.Error m
  | exception e -> Stdlib.Error (Printexc.to_string e)

let cache_key config program =
  if Config.cacheable config then
    Some
      (Cache.key ~config_fp:(Config.fingerprint config)
         ~text:(canonical_text program))
  else None

let lookup cache key ~bench ~config_name =
  Option.map
    (fun (r : Report.record) -> { r with Report.bench; config = config_name })
    (Option.bind (Cache.find cache key) record_of_payload)

let record ~bench ~config_name program (out : Compiler.output) =
  {
    Report.bench;
    config = config_name;
    qubits = Program.n_qubits program;
    paulis = Program.term_count program;
    metrics = out.Compiler.metrics;
    trace = out.Compiler.trace;
  }

let frame_verified (out : Compiler.output) =
  let layouts =
    match out.Compiler.initial_layout, out.Compiler.final_layout with
    | Some initial, Some final -> Some (initial, final)
    | _ -> None
  in
  Ph_verify.Pauli_frame.verify ?layouts ~trace:out.Compiler.rotations
    out.Compiler.circuit

let compile_checked ?(verify = true) ~config ~bench ~config_name program =
  match Compiler.compile config program with
  | exception e -> Stdlib.Error ("compile", Printexc.to_string e)
  | out -> (
    match Compiler.lint_errors out with
    | d :: _ when config.Config.lint = Lint.Diag.Error_level ->
      Stdlib.Error ("lint", Lint.Diag.to_string d)
    | _ ->
      if verify && not (frame_verified out) then
        Stdlib.Error ("verify", "Pauli-frame verification failed")
      else Stdlib.Ok (record ~bench ~config_name program out))

(* ---------- the batch ---------- *)

type prep =
  | P_failed of job_result
  | P_hit of Report.record
  | P_compile of { key : string option; program : Program.t }
  | P_coalesce of int (* array index of the job compiling the same key *)

let run ?cache ?(jobs = 1) ?(verify = true) ~config ~config_name job_list =
  let t0 = Unix.gettimeofday () in
  let cache = if Config.cacheable config then cache else None in
  let js = Array.of_list job_list in
  let n = Array.length js in
  (* Phase 1 (coordinator, submission order): parse, look up, coalesce. *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let prep =
    Array.mapi
      (fun i (j : job) ->
        match parse ~params:j.params j.source with
        | Stdlib.Error message ->
          P_failed (Failed { job_id = j.id; stage = "parse"; message })
        | Stdlib.Ok program -> (
          let key = cache_key config program in
          let hit =
            match key, cache with
            | Some k, Some c -> lookup c k ~bench:j.name ~config_name
            | _ -> None
          in
          match hit, key with
          | Some record, _ -> P_hit record
          | None, Some k -> (
            match Hashtbl.find_opt seen k with
            | Some i0 -> P_coalesce i0
            | None ->
              Hashtbl.add seen k i;
              P_compile { key; program })
          | None, None -> P_compile { key; program }))
      js
  in
  (* Phase 2 (pool): compile the unique misses. *)
  let to_compile = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | P_compile { program; _ } -> to_compile := (i, program) :: !to_compile
      | _ -> ())
    prep;
  let to_compile = List.rev !to_compile in
  let compiled =
    Pool.map_timed ~jobs
      (fun (i, program) ->
        compile_checked ~verify ~config ~bench:js.(i).name ~config_name program)
      to_compile
  in
  (* Phase 3 (coordinator, submission order): assemble and store. *)
  let results : job_result option array = Array.make n None in
  let timings = Array.make n { Pool.queue_s = 0.; run_s = 0. } in
  List.iter2
    (fun (i, _) (result, timing) ->
      let job_id = js.(i).id in
      let result =
        match result with
        | Stdlib.Ok (Stdlib.Ok record) -> Ok record
        | Stdlib.Ok (Stdlib.Error (stage, message)) ->
          Failed { job_id; stage; message }
        | Stdlib.Error e ->
          Failed { job_id; stage = "compile"; message = Printexc.to_string e }
      in
      results.(i) <- Some result;
      timings.(i) <- timing)
    to_compile compiled;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun i (j : job) ->
           match prep.(i) with
           | P_failed r -> { job = j; result = r; origin = Compiled }
           | P_hit record -> { job = j; result = Ok record; origin = From_cache }
           | P_compile _ ->
             { job = j; result = Option.get results.(i); origin = Compiled }
           | P_coalesce i0 ->
             let result =
               match Option.get results.(i0) with
               | Ok record -> Ok { record with Report.bench = j.name }
               | Failed f ->
                 Failed { job_id = j.id; stage = f.stage; message = f.message }
             in
             { job = j; result; origin = Coalesced })
         js)
  in
  (* only verified compiles are published to the shared cache *)
  (match cache with
  | Some c when verify ->
    Array.iteri
      (fun i p ->
        match p, results.(i) with
        | P_compile { key = Some k; _ }, Some (Ok record) ->
          Cache.store c k (payload_of_record record)
        | _ -> ())
      prep
  | _ -> ());
  let served, compiled_n =
    List.fold_left
      (fun (h, m) o ->
        match o.origin, o.result with
        | (From_cache | Coalesced), _ -> h + 1, m
        | Compiled, Ok _ -> h, m + 1
        | Compiled, Failed f ->
          (* parse failures never reached the cache; compile-stage
             failures were genuine misses *)
          if f.stage = "parse" then h, m else h, m + 1)
      (0, 0) outcomes
  in
  {
    outcomes;
    stats =
      {
        Report.batch_jobs = n;
        batch_workers = (if n = 0 then 0 else max 1 (min jobs n));
        batch_wall_s = Unix.gettimeofday () -. t0;
        job_wall_s =
          Array.to_list (Array.map (fun t -> t.Pool.run_s) timings);
        job_queue_s =
          Array.to_list (Array.map (fun t -> t.Pool.queue_s) timings);
        cache_hits = served;
        cache_misses = compiled_n;
      };
    cache_counters = Option.map Cache.counters cache;
  }

(* ---------- JSON report ---------- *)

let origin_name = function
  | Compiled -> "compiled"
  | From_cache -> "cache"
  | Coalesced -> "coalesced"

let outcome_to_json ~timings (o : outcome) =
  let base = [ "job", Json.Int o.job.id; "name", Json.String o.job.name ] in
  match o.result with
  | Ok record ->
    let record = if timings then record else Report.normalize_record record in
    Json.Obj
      (base
      @ [
          "status", Json.String "ok";
          "origin", Json.String (origin_name o.origin);
          "record", Report.record_to_json record;
        ])
  | Failed f ->
    Json.Obj
      (base
      @ [
          "status", Json.String "failed";
          "stage", Json.String f.stage;
          "message", Json.String f.message;
        ])

let report_json ?(timings = false) t =
  Json.Obj
    [
      "schema", Json.String "phc-batch/1";
      "results", Json.List (List.map (outcome_to_json ~timings) t.outcomes);
      ( "cache",
        match t.cache_counters with
        | Some c -> Cache.counters_to_json c
        | None -> Json.Null );
      "batch", Report.batch_to_json ~timings t.stats;
    ]
