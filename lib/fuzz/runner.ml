(* Fuzz driver: generates the seeded corpus, runs every property on
   every case within a case/time budget, shrinks each failure and writes
   reproducer artifacts.

   The summary printed on stdout is a pure function of (seed, budget,
   pipeline set) — wall-clock timings live in the summary record / JSON
   only — so two runs of `phc fuzz --seed S --cases N` are bit-for-bit
   identical and can be diffed in CI. *)

open Ph_pauli_ir
open Paulihedral

type config = {
  cases : int;
  seed : int;
  jobs : int; (* worker domains evaluating cases (1 = sequential) *)
  time_budget_s : float; (* 0. = no time budget *)
  dense_limit : int; (* dense-oracle qubit ceiling *)
  max_qubits : int; (* generator ceiling *)
  metamorphic : bool;
  coupling : Ph_hardware.Coupling.t option; (* SC device for the linter *)
  pipelines : Properties.pipeline list;
  out_dir : string option; (* None: don't write artifacts *)
}

let default_config ?coupling () =
  let max_qubits =
    match coupling with
    | None -> 8
    | Some c -> min 8 (Ph_hardware.Coupling.n_qubits c)
  in
  {
    cases = 200;
    seed = 42;
    jobs = 1;
    time_budget_s = 0.;
    dense_limit = 6;
    max_qubits;
    metamorphic = true;
    coupling;
    pipelines = Properties.default_pipelines ?coupling ();
    out_dir = Some "fuzz-failures";
  }

type stat = { mutable ran : int; mutable failed : int; mutable seconds : float }

type outcome = {
  case : Gen.case;
  failure : Properties.failure;
  shrunk : Program.t;
  shrink : Shrink.stats;
  artifact : string option;
}

type summary = {
  cases_run : int;
  per_check : (string * (int * int * float)) list; (* name -> ran, failed, seconds *)
  outcomes : outcome list;
  seconds : float;
}

let failure_count s = List.length s.outcomes

(* Rebuild the property that failed, as a reproduction predicate over
   candidate programs for the shrinker. *)
let reproduces cfg rng (case : Gen.case) (f : Properties.failure) =
  let same fs =
    List.exists (fun (g : Properties.failure) -> g.Properties.check = f.Properties.check) fs
  in
  match f.Properties.pipeline with
  | "parser" -> fun p -> same (Properties.roundtrip ~params:case.Gen.params p)
  | "metamorphic" ->
    fun p -> same (Properties.metamorphic ~dense_limit:cfg.dense_limit rng p)
  | "lint" -> fun p -> same (Properties.lint ?coupling:cfg.coupling p)
  | "pauli_ops" -> fun p -> same (Properties.pauli_ops rng p)
  | "opt" -> fun p -> same (Properties.opt_preserves ~dense_limit:cfg.dense_limit p)
  | name -> (
    match List.find_opt (fun pl -> pl.Properties.name = name) cfg.pipelines with
    | Some pl ->
      fun p -> same (Properties.check_pipeline ~dense_limit:cfg.dense_limit pl p)
    | None -> fun _ -> false)

(* One case evaluated end to end: every check in display order with its
   failures and wall time.  A pure function of (cfg, index) — safe to
   run on a pool worker domain.  Shrinking, artifact writing and stat
   accumulation stay on the coordinator, so the summary is merged in
   case order and is byte-identical whatever [cfg.jobs] was. *)
let evaluate cfg i =
  let case = Gen.case ~max_qubits:cfg.max_qubits ~seed:cfg.seed i in
  let checks = ref [] in
  let collect name thunk =
    let fails, dt = Report.timed thunk in
    checks := (name, fails, dt) :: !checks
  in
  collect "parser" (fun () ->
      Properties.roundtrip ~params:case.Gen.params case.Gen.program);
  let pauli_rng = Rng.create2 cfg.seed (0xb175 + i) in
  collect "pauli_ops" (fun () -> Properties.pauli_ops pauli_rng case.Gen.program);
  List.iter
    (fun pl ->
      collect pl.Properties.name (fun () ->
          Properties.check_pipeline ~dense_limit:cfg.dense_limit pl case.Gen.program))
    cfg.pipelines;
  collect "lint" (fun () -> Properties.lint ?coupling:cfg.coupling case.Gen.program);
  collect "opt" (fun () ->
      Properties.opt_preserves ~dense_limit:cfg.dense_limit case.Gen.program);
  if cfg.metamorphic then begin
    let meta_rng = Rng.create2 cfg.seed (0x4d455441 + i) in
    collect "metamorphic" (fun () ->
        Properties.metamorphic ~dense_limit:cfg.dense_limit meta_rng case.Gen.program)
  end;
  case, List.rev !checks

let run ?(log = fun _ -> ()) cfg =
  let t0 = Unix.gettimeofday () in
  let order = ref [] in
  let stats : (string, stat) Hashtbl.t = Hashtbl.create 16 in
  let stat name =
    match Hashtbl.find_opt stats name with
    | Some s -> s
    | None ->
      let s = { ran = 0; failed = 0; seconds = 0. } in
      Hashtbl.add stats name s;
      order := name :: !order;
      s
  in
  (* fixed display order: parser, pauli_ops, pipelines, lint, opt,
     metamorphic *)
  ignore (stat "parser");
  ignore (stat "pauli_ops");
  List.iter (fun pl -> ignore (stat pl.Properties.name)) cfg.pipelines;
  ignore (stat "lint");
  ignore (stat "opt");
  if cfg.metamorphic then ignore (stat "metamorphic");
  let deadline = if cfg.time_budget_s > 0. then Some (t0 +. cfg.time_budget_s) else None in
  let out_of_time () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  (* Case evaluation fans out across the domain pool; a case whose turn
     comes after the deadline is skipped.  With [jobs = 1] [Pool.map]
     runs on this domain in case order, reproducing the sequential
     time-budget prefix exactly; with [jobs > 1] the cut is approximate
     (cases in flight at the deadline still finish). *)
  let evals =
    Ph_pool.Pool.map ~jobs:(max 1 cfg.jobs)
      (fun i -> if out_of_time () then None else Some (evaluate cfg i))
      (List.init cfg.cases (fun i -> i))
  in
  let outcomes = ref [] in
  let cases_run = ref 0 in
  List.iter
    (fun eval ->
      match eval with
      | Error e -> raise e (* an evaluator bug, not a case failure *)
      | Ok None -> () (* skipped: past the time budget *)
      | Ok (Some (case, checks)) ->
        incr cases_run;
        List.iter
          (fun (name, fails, dt) ->
            let s = stat name in
            s.ran <- s.ran + 1;
            s.seconds <- s.seconds +. dt;
            if fails <> [] then s.failed <- s.failed + 1)
          checks;
        let failures = List.concat_map (fun (_, fails, _) -> fails) checks in
        let shrink_rng = Rng.create2 cfg.seed (0x5eed + case.Gen.id) in
        List.iter
          (fun (f : Properties.failure) ->
            log
              (Printf.sprintf "FAIL case %d (%s): %s/%s — %s; shrinking..."
                 case.Gen.id case.Gen.family f.Properties.pipeline
                 f.Properties.check f.Properties.detail);
            let shrunk, shrink =
              Shrink.minimize ~reproduces:(reproduces cfg shrink_rng case f)
                case.Gen.program
            in
            let artifact =
              Option.map
                (fun dir ->
                  Artifact.write ~dir ~seed:cfg.seed ~case ~failure:f ~shrunk)
                cfg.out_dir
            in
            (match artifact with
            | Some path -> log (Printf.sprintf "  reproducer: %s.pauli" path)
            | None -> ());
            outcomes := { case; failure = f; shrunk; shrink; artifact } :: !outcomes)
          failures)
    evals;
  {
    cases_run = !cases_run;
    per_check =
      List.rev_map
        (fun name ->
          let s = Hashtbl.find stats name in
          name, (s.ran, s.failed, s.seconds))
        !order;
    outcomes = List.rev !outcomes;
    seconds = Unix.gettimeofday () -. t0;
  }

(* Deterministic digest (no timings) for stdout. *)
let print_summary ?(out = stdout) s =
  Printf.fprintf out "fuzz: %d cases\n" s.cases_run;
  List.iter
    (fun (name, (ran, failed, _)) ->
      Printf.fprintf out "  %-12s %6d checked %6d failed\n" name ran failed)
    s.per_check;
  List.iter
    (fun o ->
      Printf.fprintf out
        "  FAIL case %d (%s) %s/%s: %s — shrunk to %d block(s), %d qubit(s)%s\n"
        o.case.Gen.id o.case.Gen.family o.failure.Properties.pipeline
        o.failure.Properties.check o.failure.Properties.detail
        (Program.block_count o.shrunk) (Program.n_qubits o.shrunk)
        (match o.artifact with
        | Some p -> Printf.sprintf " -> %s.pauli" p
        | None -> ""))
    s.outcomes;
  Printf.fprintf out "result: %s\n"
    (if s.outcomes = [] then "OK" else Printf.sprintf "%d failure(s)" (failure_count s))

let summary_to_json s =
  Json.Obj
    [
      "cases", Json.Int s.cases_run;
      "seconds", Json.Float s.seconds;
      ( "checks",
        Json.List
          (List.map
             (fun (name, (ran, failed, seconds)) ->
               Json.Obj
                 [
                   "check", Json.String name;
                   "ran", Json.Int ran;
                   "failed", Json.Int failed;
                   "seconds", Json.Float seconds;
                 ])
             s.per_check) );
      ( "failures",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   "case", Json.Int o.case.Gen.id;
                   "family", Json.String o.case.Gen.family;
                   "pipeline", Json.String o.failure.Properties.pipeline;
                   "check", Json.String o.failure.Properties.check;
                   "detail", Json.String o.failure.Properties.detail;
                   "shrunk_blocks", Json.Int (Program.block_count o.shrunk);
                   "shrink_attempts", Json.Int o.shrink.Shrink.attempts;
                   ( "artifact",
                     match o.artifact with
                     | Some p -> Json.String p
                     | None -> Json.Null );
                 ])
             s.outcomes) );
    ]
