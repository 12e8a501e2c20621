(* Bench harness: regenerates every table and figure of the paper's
   evaluation (Section 6).  Usage:

     dune exec bench/main.exe                 # everything except `timing`
     dune exec bench/main.exe table2-sc       # one experiment
     dune exec bench/main.exe table2-ft N2    # filter benchmarks by name
     dune exec bench/main.exe timing          # bechamel compile-time study
     PH_BENCH_FULL=1 dune exec bench/main.exe # paper-scale workloads

   Tables 2-4 and the scale study are data ([tables]); `history record`
   compiles the PH columns of the same specs, so a row label such as
   `table2-ft/PH` has one definition.

   Every compiled circuit is certified against its rotation trace by the
   Pauli-frame verifier; rows are flagged with `!` if verification ever
   fails (it should not).

   Machine-readable perf trajectory: append `--json FILE` to any table
   run to also write every benchmark × config record (metrics plus the
   per-stage compile trace) as a JSON array, and diff two such files
   (metric deltas, then one wall-time ratio per compile stage) with

     dune exec bench/main.exe -- table2-ft --json new.json
     dune exec bench/main.exe -- compare old.json new.json *)

open Paulihedral
open Ph_pauli_ir
open Ph_hardware
open Ph_benchmarks

let sc_device = Devices.manhattan

let row name cols =
  Printf.printf "%-14s" name;
  List.iter (fun c -> Printf.printf " %12s" c) cols;
  print_newline ()

let header title cols =
  Printf.printf "\n=== %s ===\n%!" title;
  row "benchmark" cols

(* Print an error line on stderr and exit 1. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* The benchmarks of [benches] named by [filters] (all of them when there
   is no filter).  A name that matches none of them is a usage error:
   an empty table would look like a result. *)
let select experiment filters (benches : Suite.t list) =
  let names = List.map (fun (b : Suite.t) -> b.Suite.name) benches in
  match List.filter (fun f -> not (List.mem f names)) filters with
  | [] when filters = [] -> benches
  | [] -> List.filter (fun (b : Suite.t) -> List.mem b.Suite.name filters) benches
  | unknown ->
    die "%s: no benchmark named %s; valid names: %s" experiment
      (String.concat ", " unknown) (String.concat " " names)

let pct a b = Printf.sprintf "%+.1f%%" (Report.delta a b)

(* The gate metrics of every table, in column order. *)
let gate_metrics =
  [
    "cnot", (fun (m : Report.metrics) -> m.Report.cnot);
    "single", (fun m -> m.Report.single);
    "total", (fun m -> m.Report.total);
    "depth", (fun m -> m.Report.depth);
  ]

(* ---------- machine-readable perf records (--json FILE) ---------- *)

let json_records : Report.record list ref = ref []

let write_json path =
  let json = Json.List (List.rev_map Report.record_to_json !json_records) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~indent:true json ^ "\n"));
  Printf.printf "\nwrote %d records to %s\n" (List.length !json_records) path

(* ---------- --lint: per-stage linting of the PH pipelines ---------- *)

(* At warn level the linter never fails a run; its findings and wall
   time land in the compile trace, so `--json` records carry
   lint_errors / lint_warnings and a lint span, and `compare` can report
   the lint-time overhead between two reports. *)
let bench_lint = ref Lint.Diag.Off

(* --sched-jobs: intra-compile scan parallelism.  Output-invariant
   (records are byte-identical at any value), so it participates in no
   cache fingerprint and needs no per-table plumbing. *)
let bench_sched_jobs = ref 1

(* Every PH compile of the harness runs [base] under the --lint level and
   the --sched-jobs setting. *)
let ph_config (base : Config.t) =
  { base with Config.lint = !bench_lint; sched_jobs = !bench_sched_jobs }

let ph base prog = Pipelines.ph (ph_config base) prog

(* ---------- pooled tables & record cache (--jobs / --cache) ---------- *)

let bench_jobs = ref 1
let bench_cache : Ph_pool.Cache.t option ref = ref None

(* One (benchmark, config) cell of a table: everything the row printers
   and the --json report need, whether the compile ran here or the
   record came out of the cache. *)
type cell = { c_record : Report.record; c_verified : bool }

(* Baseline cache fingerprints: the baselines are not config-driven and
   get a synthetic tag (with the SC device identity folded in, since
   routing depends on it).  It embeds [Config.version_tag], so a version
   bump invalidates every entry. *)
let fp_baseline backend tag =
  Printf.sprintf "v=%s;baseline=%s%s" Config.version_tag tag
    (match backend with
    | Suite.FT -> ""
    | Suite.SC -> ";" ^ Config.fingerprint (Config.sc sc_device))

(* Run [f] for one cell, through the record [cache] when there is one.
   Only verified runs are stored (same payload shape as the phc batch
   cache), so a hit is trusted without recompiling; [Batch.lookup]
   relabels it to this row's identity. *)
let cached ~cache ~bench ~config ~fp prog (f : unit -> Pipelines.run) =
  let run () =
    let r = f () in
    let qubits = Program.n_qubits prog and paulis = Program.term_count prog in
    let metrics = r.Pipelines.metrics and trace = r.Pipelines.trace in
    {
      c_record = { Report.bench; config; qubits; paulis; metrics; trace };
      c_verified = Pipelines.verified r;
    }
  in
  match cache with
  | None -> run ()
  | Some cache -> (
    let key =
      Ph_pool.Cache.key ~config_fp:fp ~text:(Ph_pool.Batch.canonical_text prog)
    in
    match Ph_pool.Batch.lookup cache key ~bench ~config_name:config with
    | Some r -> { c_record = r; c_verified = true }
    | None ->
      let c = run () in
      if c.c_verified then
        Ph_pool.Cache.store cache key
          (Ph_pool.Batch.payload_of_record c.c_record);
      c)

let cell_cols c =
  let m = c.c_record.Report.metrics in
  List.map (fun (_, f) -> string_of_int (f m)) gate_metrics
  @ [ Printf.sprintf "%.2f" m.Report.seconds ]

let cell_checked c name =
  if c.c_verified then name else name ^ " !UNVERIFIED"

(* Fan per-benchmark table work across the domain pool; cells (--json
   records) and rows merge on the coordinator in suite order, so the
   table and the report are identical whatever --jobs was.  Within one
   table every cell has a distinct cache key, so cold-cache counter
   totals are deterministic too.  A worker exception re-raises here:
   bench inputs are trusted, fault isolation is `phc batch`'s job.
   Returns each item's cells (suite order) so callers can print
   table-level aggregates such as the gap geomeans. *)
let pooled items f =
  List.map
    (function
      | Stdlib.Ok (cells, rows) ->
        List.iter (fun c -> json_records := c.c_record :: !json_records) cells;
        List.iter (fun (name, cols) -> row name cols) rows;
        cells
      | Stdlib.Error e -> raise e)
    (Ph_pool.Pool.map ~jobs:!bench_jobs f items)

(* ---------- static-analysis attachment (post-hoc) ---------- *)

(* Attach the analyzer's bounds/gap summary to a cell after the fact:
   a pure function of (program, achieved metrics), so it applies equally
   to fresh compiles and cache hits, runs outside any perf window (the
   compile's counter deltas stay untouched), and is identical whatever
   --jobs was. *)
let analyzed prog c =
  let r = c.c_record in
  let m = r.Report.metrics in
  let s =
    Analysis.Gap.summarize ~cnot:m.Report.cnot ~single:m.Report.single
      ~total:m.Report.total ~depth:m.Report.depth
      (Analysis.Bounds.of_program prog)
  in
  let trace = { r.Report.trace with Report.analysis = Some s } in
  { c with c_record = { r with Report.trace } }

(* A record's achieved/floor total gap; 0 when it carries no analysis
   or the floor is zero. *)
let gap_total (r : Report.record) =
  match r.Report.trace.Report.analysis with
  | Some { Analysis.Gap.gap_total = Some g; _ } -> g
  | Some _ | None -> 0.

let show_gap g = if g > 0. then Printf.sprintf "%.2fx" g else "n/a"
let gap_col c = show_gap (gap_total c.c_record)

(* A table footer of per-metric geomeans: "name G/n" for each metric,
   "name n/a" when no cell had a defined ratio. *)
let geomeans_line title prec metrics =
  Printf.printf "%s: %s\n" title
    (String.concat "  "
       (List.map
          (fun (name, rs) ->
            if rs = [] then name ^ " n/a"
            else
              Printf.sprintf "%s %.*fx/%d" name prec (Report.geomean rs)
                (List.length rs))
          metrics))

(* Per-metric geomeans of the achieved/floor ratios over every analyzed
   cell of a table (cells without a defined ratio are skipped, same rule
   as `compare`). *)
let gap_geomeans cells =
  let analyses = List.filter_map (fun c -> c.c_record.Report.trace.Report.analysis) cells in
  let collect f = List.filter_map f analyses in
  let metrics =
    [
      "depth", collect (fun s -> s.Analysis.Gap.gap_depth);
      "cnot", collect (fun s -> s.Analysis.Gap.gap_cnot);
      "single", collect (fun s -> s.Analysis.Gap.gap_single);
      "total", collect (fun s -> s.Analysis.Gap.gap_total);
    ]
  in
  if List.exists (fun (_, rs) -> rs <> []) metrics then
    geomeans_line "gap geomeans (achieved/floor)" 2 metrics

(* Geomeans of the PHX/base metric ratios over a table's (base, PHX)
   cell pairs, one per benchmark — the headline "does the IR optimizer
   beat the base scheduling" number (pairs where either side is 0 are
   skipped, same rule as `compare`). *)
let phx_geomeans label pairs =
  let ratios f =
    List.filter_map
      (fun (g, p) ->
        let a = f g.c_record.Report.metrics
        and b = f p.c_record.Report.metrics in
        if a > 0 && b > 0 then Some (float_of_int b /. float_of_int a) else None)
      pairs
  in
  if pairs <> [] then
    geomeans_line ("PHX/" ^ label ^ " geomeans") 3
      (List.map (fun (name, f) -> name, ratios f) gate_metrics)

(* ---------- Table 1: benchmark information ---------- *)

let table1 filters =
  let benches = select "table1" filters (Suite.all ()) in
  header "Table 1: benchmark information (naive lowering, no optimization)"
    [ "qubits"; "pauli#"; "cnot#"; "single#" ];
  ignore @@ pooled benches
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let naive = Ph_synthesis.Naive.synthesize prog in
      let c = naive.Ph_synthesis.Emit.circuit in
      ( [],
        [
          ( b.Suite.name,
            [
              string_of_int (Program.n_qubits prog);
              string_of_int (Program.term_count prog);
              string_of_int (Ph_gatelevel.Circuit.cnot_count c);
              string_of_int (Ph_gatelevel.Circuit.single_qubit_count c);
            ] );
        ] ))

(* ---------- Tables 2-4 and the scale study: table specs ---------- *)

(* Where a column's cells come from: a PH compile under a schedule (on
   the benchmark's backend; SC compiles for [sc_device]), or a baseline
   pipeline cached under [fp_baseline backend name]. *)
type source =
  | Ph of Config.schedule
  | Baseline of string * (Suite.backend -> Program.t -> Pipelines.run)

type rows =
  | Absolute of { sched : bool }
      (** metrics and time(s), then sched(s) when [sched], then gap
          when the cells are analyzed *)
  | Deltas of string
      (** % change of every other column against this base column *)

type spec = {
  name : string;  (** the experiment, and every record's config prefix *)
  title : string;
  suite : unit -> Suite.t list;
  columns : (string * source) list;
      (** (tag, source); a cell's record config is [name/tag] *)
  rows : rows;
  analyzed : bool;
  phx_base : (string * string) option;
      (** (tag, label) of the base column of the PHX geomeans footer *)
}

let ph_do = "PH", Ph Config.Depth_oriented
let phx = "PHX", Ph Config.Phoenix_like

let tk =
  ( "TK",
    Baseline
      ( "tk",
        fun backend prog ->
          match backend with
          | Suite.FT -> Pipelines.tk_ft prog
          | Suite.SC -> Pipelines.tk_sc sc_device prog ) )

(* Table 4's baseline: same scheduling, naive per-string synthesis, same
   generic stage (peephole; + router on SC) — the paper's "naive
   synthesis and Qiskit_L3". *)
let naive =
  ( "naive",
    Baseline
      ( "gco+naive",
        fun backend prog ->
          let scheduled = Ph_schedule.Gco.run prog in
          match backend with
          | Suite.FT -> Pipelines.naive_ft scheduled
          | Suite.SC -> Pipelines.naive_sc sc_device scheduled ) )

let table2 name title suite =
  {
    name;
    title = title ^ ": PH vs PHX vs TK, each + generic stage";
    suite;
    columns = [ ph_do; phx; tk ];
    rows = Absolute { sched = false };
    analyzed = true;
    phx_base = Some ("PH", "PH");
  }

let tables =
  [
    table2 "table2-sc" "Table 2 (SC backend, Manhattan-65)" (fun () -> Suite.sc ());
    table2 "table2-ft" "Table 2 (FT backend)" (fun () -> Suite.ft ());
    {
      name = "table3";
      title = "Table 3 (Manhattan-65): PH vs algorithm-specific QAOA compiler";
      suite =
        (fun () ->
          List.filter
            (fun (b : Suite.t) -> b.Suite.category = "QAOA" && b.Suite.name.[0] = 'R')
            (Suite.sc ()));
      (* SC-only suite: the QAOA compiler routes on [sc_device] *)
      columns =
        [
          ph_do;
          phx;
          "QAOA_comp", Baseline ("qaoa", fun _ -> Pipelines.qaoa_sc sc_device);
        ];
      rows = Absolute { sched = false };
      analyzed = false;
      phx_base = None;
    };
    {
      name = "table4-sched";
      title = "Table 4 (left): DO and PHX vs GCO scheduling (deltas relative to GCO)";
      suite = (fun () -> Suite.all ());
      columns = [ "GCO", Ph Config.Gco; "DO", Ph Config.Depth_oriented; phx ];
      rows = Deltas "GCO";
      analyzed = false;
      phx_base = Some ("GCO", "GCO");
    };
    {
      name = "table4-bc";
      title = "Table 4 (right): block-wise compilation vs naive synthesis (deltas)";
      suite = (fun () -> Suite.all ());
      columns = [ "PH", Ph Config.Gco; phx; naive ];
      rows = Deltas "naive";
      analyzed = false;
      phx_base = None;
    };
    (* DO and PHX compiles of the 64-256 qubit scale suite (FT backend),
       with the scheduling stage's wall time broken out — the table the
       schedule_s speedup target is measured on. *)
    {
      name = "scale";
      title = "Scale: DO vs PHX scheduling at 64-256 qubits (FT backend)";
      suite = Suite.scale;
      columns = [ ph_do; phx ];
      rows = Absolute { sched = true };
      analyzed = true;
      phx_base = Some ("PH", "DO");
    };
  ]

let table name = List.find (fun s -> s.name = name) tables

(* The cell of [spec]'s column [(tag, source)] for benchmark [b],
   through [cache] when there is one, analyzed when the spec asks. *)
let table_cell ~cache spec (b : Suite.t) prog (tag, source) =
  let bench = b.Suite.name and config = spec.name ^ "/" ^ tag in
  let c =
    match source with
    | Ph schedule ->
      let c =
        ph_config
          (match b.Suite.backend with
          | Suite.FT -> Config.ft ~schedule ()
          | Suite.SC -> Config.sc ~schedule sc_device)
      in
      cached ~cache ~bench ~config ~fp:(Config.fingerprint c) prog (fun () ->
          Pipelines.ph c prog)
    | Baseline (name, run) ->
      cached ~cache ~bench ~config ~fp:(fp_baseline b.Suite.backend name) prog
        (fun () -> run b.Suite.backend prog)
  in
  if spec.analyzed then analyzed prog c else c

let table_header spec =
  ("config" :: List.map fst gate_metrics)
  @
  match spec.rows with
  | Deltas _ -> []
  | Absolute { sched } ->
    ("time(s)" :: (if sched then [ "sched(s)" ] else []))
    @ if spec.analyzed then [ "gap" ] else []

(* A block scheduler (not PHX, which rewrites inside blocks) can only
   reorder blocks, so the delta between two of them reads N/A on a
   single-block program. *)
let block_scheduler = function
  | Ph schedule -> schedule <> Config.Phoenix_like
  | Baseline _ -> false

(* The rows of one benchmark: its name on the first row only, and the
   verification flags on the tag (absolute rows) or on the name (delta
   rows, whose first row also answers for the base cell). *)
let table_rows spec (b : Suite.t) prog cells =
  let first i name = if i = 0 then name else "" in
  match spec.rows with
  | Absolute { sched } ->
    List.mapi
      (fun i ((tag, _), c) ->
        let spans = c.c_record.Report.trace.Report.spans in
        ( first i b.Suite.name,
          (cell_checked c tag :: cell_cols c)
          @ (if sched then
               [ Printf.sprintf "%.3f" (Report.span_of spans "schedule").Report.wall_s ]
             else [])
          @ if spec.analyzed then [ gap_col c ] else [] ))
      cells
  | Deltas base ->
    let (_, base_source), base_cell = List.find (fun ((tag, _), _) -> tag = base) cells in
    let n = base_cell.c_record.Report.metrics in
    List.filter (fun ((tag, _), _) -> tag <> base) cells
    |> List.mapi (fun i ((tag, source), c) ->
           if
             block_scheduler source && block_scheduler base_source
             && Program.block_count prog <= 1
           then first i b.Suite.name, tag :: List.init 4 (fun _ -> "N/A")
           else
             let m = c.c_record.Report.metrics in
             ( cell_checked c (first i (cell_checked base_cell b.Suite.name)),
               tag :: List.map (fun (_, f) -> pct (f n) (f m)) gate_metrics ))

let run_table spec filters =
  let benches = select spec.name filters (spec.suite ()) in
  header spec.title (table_header spec);
  let cells =
    pooled benches (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        let cell col = col, table_cell ~cache:!bench_cache spec b prog col in
        let cells = List.map cell spec.columns in
        List.map snd cells, table_rows spec b prog cells)
  in
  if spec.analyzed then gap_geomeans (List.concat cells);
  Option.iter
    (fun (base, label) ->
      let at tag cs = List.assoc tag (List.combine (List.map fst spec.columns) cs) in
      phx_geomeans label (List.map (fun cs -> at base cs, at "PHX" cs) cells))
    spec.phx_base

(* ---------- Figure 11: end-to-end QAOA success probability ---------- *)

let fig11_graphs () =
  List.map
    (fun n -> Printf.sprintf "REG-n%d-d4" n, Graphs.regular ~seed:(400 + n) n 4)
    [ 7; 8; 9; 10 ]
  @ List.map
      (fun n -> Printf.sprintf "RD-n%d-p0.5" n, Graphs.erdos_renyi ~seed:(500 + n) n 0.5)
      [ 7; 8; 9; 10 ]

let fig11 filters =
  header "Figure 11: QAOA success probability on Melbourne-16 (noisy simulation)"
    [ "ESP base"; "ESP PH"; "ESP gain"; "RSP base"; "RSP PH"; "RSP gain" ];
  let device = Devices.melbourne in
  let noise = Noise_model.calibrated device ~seed:42 ~cnot:0.02 ~single:2e-3 ~readout:3e-2 () in
  let trajectories = 800 in
  let esp_gains = ref [] and rsp_gains = ref [] in
  List.iter
    (fun (name, g) ->
      if filters = [] || List.mem name filters then begin
        let gamma, beta = Ph_sim.Qaoa_run.optimize_parameters ~grid:12 g in
        let prog = Qaoa.maxcut g ~gamma in
        let kernel_of (r : Pipelines.run) =
          {
            Ph_sim.Qaoa_run.phase = r.Pipelines.circuit;
            initial_layout = Option.get r.Pipelines.initial_layout;
            final_layout = Option.get r.Pipelines.final_layout;
          }
        in
        (* Baseline: adjacency-order naive synthesis + trivial-layout
           low-lookahead routing, matching the strength of the generic
           compiler the paper benchmarked against (EXPERIMENTS.md
           discusses the stronger modern-router baseline). *)
        let base = Pipelines.naive_sc_trivial device prog in
        let ph = ph (Config.sc device) prog in
        let eval r seed =
          Ph_sim.Qaoa_run.evaluate ~noise ~trajectories ~seed g (kernel_of r) ~beta
        in
        (* Common random numbers: same trajectory seed for both
           compilations, so the comparison isn't drowned in Monte-Carlo
           variance. *)
        let ob = eval base 1 and op = eval ph 1 in
        let flag =
          (if Pipelines.verified base then "" else " base!UNVERIFIED")
          ^ if Pipelines.verified ph then "" else " ph!UNVERIFIED"
        in
        esp_gains := (op.Ph_sim.Qaoa_run.esp /. ob.Ph_sim.Qaoa_run.esp) :: !esp_gains;
        rsp_gains :=
          (op.Ph_sim.Qaoa_run.success /. ob.Ph_sim.Qaoa_run.success) :: !rsp_gains;
        row (name ^ flag)
          [
            Printf.sprintf "%.3f" ob.Ph_sim.Qaoa_run.esp;
            Printf.sprintf "%.3f" op.Ph_sim.Qaoa_run.esp;
            Printf.sprintf "%.2fx" (op.Ph_sim.Qaoa_run.esp /. ob.Ph_sim.Qaoa_run.esp);
            Printf.sprintf "%.3f" ob.Ph_sim.Qaoa_run.success;
            Printf.sprintf "%.3f" op.Ph_sim.Qaoa_run.success;
            Printf.sprintf "%.2fx"
              (op.Ph_sim.Qaoa_run.success /. ob.Ph_sim.Qaoa_run.success);
          ]
      end)
    (fig11_graphs ());
  if !esp_gains <> [] then
    Printf.printf "geomean gains: ESP %.2fx, RSP %.2fx\n"
      (Report.geomean !esp_gains) (Report.geomean !rsp_gains)

(* ---------- Ablations of DESIGN.md's design choices ---------- *)

let ablation filters =
  header "Ablations (CNOT / depth per variant)" [ "variant"; "cnot"; "depth" ];
  let show name prog variants =
    List.iter
      (fun (vname, f) ->
        let m : Report.metrics = f prog in
        row name [ vname; string_of_int m.Report.cnot; string_of_int m.Report.depth ])
      variants
  in
  (* each variant swaps one choice before the generic stage *)
  let lowered synthesize prog =
    let r, _, _, _ = Compiler.generic_stage (Report.clock ()) (synthesize prog) in
    Report.of_circuit r.Ph_synthesis.Emit.circuit
  in
  let ft ?mode layers prog =
    `Logical (Ph_synthesis.Ft_backend.synthesize ?mode ~n_qubits:(Program.n_qubits prog) layers)
  in
  let ft_mode mode = lowered (fun prog -> ft ~mode (Ph_schedule.Gco.schedule prog) prog) in
  let do_padding padding =
    lowered (fun prog -> ft (Ph_schedule.Depth_oriented.schedule ~padding prog) prog)
  in
  let sc_root root_policy =
    lowered (fun prog ->
        `Routed
          (Ph_synthesis.Sc_backend.synthesize ~root_policy ~coupling:sc_device
             ~n_qubits:(Program.n_qubits prog)
             (Ph_schedule.Depth_oriented.schedule prog)))
  in
  let lex_rank rank = lowered (fun prog -> ft (Ph_schedule.Gco.schedule ?rank prog) prog) in
  let run name cases =
    if filters = [] || List.mem name filters then begin
      let prog = (Suite.find name).Suite.generate () in
      show name prog cases
    end
  in
  let sched_variant schedule prog =
    (ph (Config.ft ~schedule ()) prog).Pipelines.metrics
  in
  run "UCCSD-12"
    [
      "ft-chain", ft_mode `Chain;
      "ft-pair", ft_mode `Pair;
      "ft-indep", ft_mode `Independent;
      "lex-paper", lex_rank None;
      "lex-naive", lex_rank (Some (fun op -> Ph_pauli.Pauli.to_code op));
      "sched-gco", sched_variant Config.Gco;
      "sched-maxov", sched_variant Config.Max_overlap;
      "sched-none", sched_variant Config.Program_order;
    ];
  run "Heisen-2D"
    [ "do-padding", do_padding true; "do-nopad", do_padding false ];
  run "UCCSD-8"
    [ "sc-root-lcc", sc_root `Largest_component; "sc-root-first", sc_root `First_core ];
  let it_backend prog = (ph (Config.ion_trap ()) prog).Pipelines.metrics in
  let ft_backend prog = (ph (Config.ft ()) prog).Pipelines.metrics in
  run "Heisen-1D"
    [ "backend-ft", ft_backend; "backend-ion", it_backend ]

(* ---------- Compile-time study (bechamel) ---------- *)

(* Word-parallel Pauli-kernel microbenchmarks: the symplectic bitplane
   ops the schedulers and the frame verifier spend their time in, at
   widths from sub-word to several words (the native word holds
   Sys.int_size - 1 = 62 qubits per plane word). *)
let kernel_tests () =
  let open Bechamel in
  let open Ph_pauli in
  (* Deterministic LCG so every run benchmarks identical strings. *)
  let string_at ~seed n =
    let state = ref (seed land 0x3FFFFFFF) in
    Pauli_string.make n (fun _ ->
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        Pauli.of_code ((!state lsr 16) land 3))
  in
  List.concat_map
    (fun n ->
      let p = string_at ~seed:(0xA5 + n) n and q = string_at ~seed:(0x5A + n) n in
      [
        Test.make ~name:(Printf.sprintf "kernel/commutes-n%d" n)
          (Staged.stage (fun () -> ignore (Pauli_string.commutes p q)));
        Test.make ~name:(Printf.sprintf "kernel/overlap-n%d" n)
          (Staged.stage (fun () -> ignore (Pauli_string.overlap p q)));
        Test.make ~name:(Printf.sprintf "kernel/mul-n%d" n)
          (Staged.stage (fun () -> ignore (Pauli_string.mul p q)));
      ])
    [ 16; 64; 80; 256 ]

let timing () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\n=== Compilation-time study (bechamel, one test per table) ===\n%!";
  let stage f = Staged.stage f in
  let uccsd8 = (Suite.find "UCCSD-8").Suite.generate () in
  let reg = (Suite.find "REG-20-4").Suite.generate () in
  let heisen = (Suite.find "Heisen-2D").Suite.generate () in
  let rand30 = (Suite.find "Rand-30").Suite.generate () in
  let fig11_graph = Graphs.regular ~seed:407 7 4 in
  let fig11_prog = Qaoa.maxcut fig11_graph ~gamma:0.5 in
  let tests =
    [
      Test.make ~name:"table1/naive-UCCSD-8"
        (stage (fun () -> ignore (Ph_synthesis.Naive.synthesize uccsd8)));
      Test.make ~name:"table2-sc/ph-UCCSD-8"
        (stage (fun () -> ignore (ph (Config.sc sc_device) uccsd8)));
      Test.make ~name:"table2-ft/ph-Rand-30"
        (stage (fun () -> ignore (ph (Config.ft ()) rand30)));
      Test.make ~name:"table3/ph-REG-20-4"
        (stage (fun () -> ignore (ph (Config.sc sc_device) reg)));
      Test.make ~name:"table4/do-Heisen-2D"
        (stage (fun () ->
             ignore (ph (Config.ft ~schedule:Config.Depth_oriented ()) heisen)));
      Test.make ~name:"fig11/ph-REG-n7-d4"
        (stage (fun () -> ignore (ph (Config.sc Devices.melbourne) fig11_prog)));
    ]
    @ (* schedule_s study: the DO scheduler alone over the 64-256 qubit
         scale suite, no synthesis — the rows the arena rewrite targets *)
    List.map
      (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        Test.make ~name:(Printf.sprintf "sched/do-%s" b.Suite.name)
          (stage (fun () ->
               ignore (Ph_schedule.Depth_oriented.schedule prog))))
      (Suite.scale ())
    @ kernel_tests ()
  in
  let test = Test.make_grouped ~name:"paulihedral" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _label per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) when t < 1e4 ->
            (* kernel microbenchmarks land in the ns range *)
            Printf.printf "%-40s %12.1f ns/run\n" name t
          | Some (t :: _) -> Printf.printf "%-40s %12.3f ms/run\n" name (t /. 1e6)
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        per_test)
    results

(* ---------- compare: perf-trajectory deltas between two reports ---------- *)

(* A bench --json report.  An unreadable or malformed file ends the run
   with [cmd: PATH: msg] and exit 1. *)
let load_records cmd path =
  try
    let s = In_channel.with_open_bin path In_channel.input_all in
    List.map Report.record_of_json (Json.to_list (Json.parse s))
  with
  | Sys_error msg -> die "%s: %s" cmd msg
  | Json.Parse_error msg -> die "%s: %s: %s" cmd path msg

(* How a compare column shows one matched row: the % change, the B/A
   ratio, or each report's own gap. *)
type shown = Delta | Ratio | Sides

(* Each column reads one number per record; every column folds the B/A
   ratio of each matched row into a geomean.  A value <= 0 means the
   stage did not run or the record has no analysis: such a cell shows
   "-" (or "n/a") and is counted as skipped, never folded in. *)
let compare_columns =
  let wall stage (r : Report.record) =
    (Report.span_of r.Report.trace.Report.spans stage).Report.wall_s
  in
  List.map
    (fun (name, f) ->
      name, Delta, fun (r : Report.record) -> float_of_int (f r.Report.metrics))
    gate_metrics
  @ [ "time", Ratio, (fun r -> r.Report.metrics.Report.seconds) ]
  @ List.map (fun stage -> stage, Ratio, wall stage) Report.stages
  @ [
      ( "alloc",
        Ratio,
        fun r ->
          List.fold_left
            (fun n (sp : Report.span) -> n +. float_of_int sp.Report.alloc_words)
            0. r.Report.trace.Report.spans );
      "gap", Sides, gap_total;
    ]

let compare_reports a_path b_path =
  let a = load_records "compare" a_path and b = load_records "compare" b_path in
  let same (ra : Report.record) (rb : Report.record) =
    rb.Report.bench = ra.Report.bench && rb.Report.config = ra.Report.config
  in
  let matched =
    List.filter_map
      (fun ra -> Option.map (fun rb -> ra, rb) (List.find_opt (same ra) b))
      a
  in
  let line bench config cells =
    Printf.printf "%-14s %-22s%s\n" bench config
      (String.concat "" (List.map (Printf.sprintf " %9s") cells))
  in
  Printf.printf "=== compare: %s (A) vs %s (B) ===\n" a_path b_path;
  line "benchmark" "config"
    (List.concat_map
       (fun (name, shown, _) ->
         if shown = Sides then [ name ^ "A"; name ^ "B" ] else [ name ])
       compare_columns);
  List.iter
    (fun ((ra : Report.record), rb) ->
      line ra.Report.bench ra.Report.config
        (List.concat_map
           (fun (_, shown, f) ->
             let va = f ra and vb = f rb in
             match shown with
             | Delta -> [ pct (truncate va) (truncate vb) ]
             | Ratio ->
               [ (if va > 0. && vb > 0. then Printf.sprintf "%.2fx" (vb /. va) else "-") ]
             | Sides -> [ show_gap va; show_gap vb ])
           compare_columns))
    matched;
  (* Rows present in only one report used to vanish silently, hiding
     added/removed benchmarks (and typoed config names) from the diff. *)
  let only tag xs ys =
    match List.filter (fun r -> not (List.exists (same r) ys)) xs with
    | [] -> ()
    | missing ->
      Printf.printf "rows only in %s (%d): %s\n" tag (List.length missing)
        (String.concat ", "
           (List.map
              (fun (r : Report.record) -> r.Report.bench ^ ":" ^ r.Report.config)
              missing))
  in
  only "A" a b;
  only "B" b a;
  if matched = [] then begin
    Printf.printf "no (benchmark, config) pairs in common\n";
    1
  end
  else begin
    print_newline ();
    let skipped = ref 0 in
    List.iter
      (fun (name, _, f) ->
        let rs =
          List.filter_map
            (fun (ra, rb) ->
              let va = f ra and vb = f rb in
              if va > 0. && vb > 0. then Some (vb /. va) else None)
            matched
        in
        skipped := !skipped + List.length matched - List.length rs;
        if rs = [] then Printf.printf "geomean %-9s (no data)\n" name
        else
          Printf.printf "geomean %-9s %.3fx (B/A, %d rows)\n" name
            (Report.geomean rs) (List.length rs))
      compare_columns;
    if !skipped > 0 then
      Printf.printf
        "skipped %d zero/absent-valued cells across %d matched rows (not \
         folded into geomeans)\n"
        !skipped (List.length matched);
    0
  end

(* ---------- driver ---------- *)

let experiments =
  let run name = name, run_table (table name) in
  [
    "table1", table1;
    run "table2-sc";
    run "table2-ft";
    run "table3";
    run "table4-sched";
    run "table4-bc";
    "fig11", fig11;
    "ablation", ablation;
    run "scale";
  ]

let usage () =
  die
    "usage: main.exe [table1|table2-sc|table2-ft|table3|table4-sched|table4-bc|fig11|ablation|scale|timing] [benchmark names...] [--json FILE] [--lint] [--jobs N] [--sched-jobs N] [--cache DIR]\n\
    \       main.exe compare A.json B.json\n\
    \       main.exe history record --commit LABEL [--db FILE] [--suite ft|sc|scale|all] [--jobs N]\n\
    \       main.exe history show [--db FILE] [--counter NAME] [--last N]\n\
    \       main.exe history compare A B [--db FILE]   (commit labels or .json reports)\n\
    \       main.exe history gate [--db FILE] [--candidate FILE.csv|FILE.json | --suite ft|sc|scale|all] [--against LABEL] [--threshold PCT]"

(* ---------- history: per-commit deterministic counter db ---------- *)

(* [extract_opt key args]: the value of [key VALUE] and the rest of
   [args]; a trailing [key] with no value is a usage error. *)
let extract_opt key args =
  let rec go acc = function
    | k :: v :: rest when k = key -> Some v, List.rev_append acc rest
    | [ k ] when k = key -> usage ()
    | x :: rest -> go (x :: acc) rest
    | [] -> None, List.rev acc
  in
  go [] args

(* [key N] with N >= 1, [default] when absent. *)
let extract_count key ~default args =
  match extract_opt key args with
  | None, rest -> default, rest
  | Some s, rest -> (
    match int_of_string_opt s with Some n when n >= 1 -> n, rest | _ -> usage ())

let default_db = "perf/history.csv"

(* Fresh compiles of the PH columns (PH, PHX) of the table specs behind
   [suite] (never cache-served: the counters must measure work actually
   performed here), under the tables' own row labels. *)
let history_records suite =
  let specs =
    List.map table
      (match suite with
      | "ft" -> [ "table2-ft" ]
      | "sc" -> [ "table2-sc" ]
      | "scale" -> [ "scale" ]
      | "all" -> [ "table2-ft"; "table2-sc"; "scale" ]
      | _ -> usage ())
  in
  List.concat_map (fun spec -> List.map (fun b -> spec, b) (spec.suite ())) specs
  |> Ph_pool.Pool.map ~jobs:!bench_jobs (fun (spec, (b : Suite.t)) ->
         let prog = b.Suite.generate () in
         List.filter_map
           (function
             | _, Ph _ as col -> Some (table_cell ~cache:None spec b prog col).c_record
             | _, Baseline _ -> None)
           spec.columns)
  |> List.concat_map (function Stdlib.Ok rs -> rs | Stdlib.Error e -> raise e)

let rows_of_records ~commit records =
  List.concat_map (Report.perf_rows ~commit) records

(* The rows of commit [label]; a label the db does not hold is an error
   that names the labels it does. *)
let commit_rows ~cmd ~db_path db label =
  match Ph_perf.Db.rows_for db label with
  | [] ->
    die "history %s: no rows for %s in %s (known commits: %s)" cmd label db_path
      (String.concat " " (Ph_perf.Db.commits db))
  | rows -> rows

(* A comparison operand is either a commit label in the db or a path to
   a bench --json report (rows synthesized under the file name). *)
let history_operand ~cmd ~db_path db spec =
  if Filename.check_suffix spec ".json" then
    spec, rows_of_records ~commit:spec (load_records "history" spec)
  else spec, commit_rows ~cmd ~db_path db spec

let last_commit db =
  match List.rev (Ph_perf.Db.commits db) with
  | [] -> die "history: empty db"
  | c :: _ -> c

let print_summaries summaries =
  Printf.printf "%-26s %8s %6s %7s %7s %7s\n" "counter" "ratio" "rows"
    "skipped" "only-A" "only-B";
  List.iter
    (fun (s : Ph_perf.History.summary) ->
      Printf.printf "%-26s %8s %6d %7d %7d %7d\n" s.counter
        (if Float.is_nan s.ratio then "-"
         else Printf.sprintf "%.3fx" s.ratio)
        (s.matched - s.skipped) s.skipped s.only_baseline s.only_candidate)
    summaries;
  let skipped =
    List.fold_left (fun n (s : Ph_perf.History.summary) -> n + s.skipped) 0 summaries
  in
  if skipped > 0 then
    Printf.printf
      "skipped %d zero-valued cells (not folded into per-counter geomeans)\n" skipped

let history_entry args =
  let db_path, args = extract_opt "--db" args in
  let db_path = Option.value db_path ~default:default_db in
  match args with
  | "record" :: rest ->
    let commit, rest = extract_opt "--commit" rest in
    let suite, rest = extract_opt "--suite" rest in
    if rest <> [] then usage ();
    let commit = match commit with Some c -> c | None -> usage () in
    let suite = Option.value suite ~default:"ft" in
    let records = history_records suite in
    let rows = rows_of_records ~commit records in
    Ph_perf.Db.append db_path rows;
    Printf.printf "history: appended %d rows (%d records, suite %s) for %s to %s\n"
      (List.length rows) (List.length records) suite commit db_path;
    0
  | "show" :: rest ->
    let counter, rest = extract_opt "--counter" rest in
    let last, rest = extract_count "--last" ~default:5 rest in
    if rest <> [] then usage ();
    let db = Ph_perf.Db.load db_path in
    if db = [] then begin
      Printf.printf "history: %s is empty\n" db_path;
      0
    end
    else begin
      let commits = Ph_perf.Db.commits db in
      Printf.printf "history: %s — %d rows, %d commits (%s)\n" db_path
        (List.length db) (List.length commits)
        (String.concat " " commits);
      let names =
        match counter with
        | None -> Ph_perf.History.counter_names db
        | Some c -> [ c ]
      in
      List.iter
        (fun name ->
          let traj = Ph_perf.History.trajectory db name in
          let spark = Ph_perf.History.sparkline (List.map snd traj) in
          (* last-N step deltas over commits where the counter exists *)
          let present =
            List.filter_map (fun (c, v) -> Option.map (fun v -> c, v) v) traj
          in
          let drop = List.length present - (last + 1) in
          let deltas =
            match List.filteri (fun i _ -> i >= drop) present with
            | [] | [ _ ] -> "(no trajectory)"
            | (_, v0) :: steps ->
              let prev = ref v0 in
              String.concat "  "
                (List.map
                   (fun (c, v) ->
                     let d = 100. *. ((v /. !prev) -. 1.) in
                     prev := v;
                     Printf.sprintf "%s:%+.1f%%" c d)
                   steps)
          in
          Printf.printf "%-26s [%s]  %s\n" name spark deltas)
        names;
      0
    end
  | [ "compare"; a; b ]
    when not (List.exists (String.starts_with ~prefix:"--") [ a; b ]) ->
    let db = Ph_perf.Db.load db_path in
    let la, base = history_operand ~cmd:"compare" ~db_path db a in
    let lb, cand = history_operand ~cmd:"compare" ~db_path db b in
    Printf.printf "=== history compare: %s (A, %d rows) vs %s (B, %d rows) ===\n"
      la (List.length base) lb (List.length cand);
    print_summaries (Ph_perf.History.summarize ~baseline:base ~candidate:cand);
    0
  | "gate" :: rest ->
    let threshold, rest = extract_opt "--threshold" rest in
    let against, rest = extract_opt "--against" rest in
    let candidate, rest = extract_opt "--candidate" rest in
    let suite, rest = extract_opt "--suite" rest in
    (* --suite picks the fresh run; a candidate file is not one *)
    if rest <> [] || (candidate <> None && suite <> None) then usage ();
    let threshold =
      match threshold with
      | None -> 2.
      | Some s ->
        (match float_of_string_opt s with Some f when f >= 0. -> f | _ -> usage ())
    in
    let db = Ph_perf.Db.load db_path in
    let base_label = match against with Some l -> l | None -> last_commit db in
    let baseline = commit_rows ~cmd:"gate" ~db_path db base_label in
    let cand_label, cand_rows =
      match candidate with
      | Some file when Filename.check_suffix file ".json" ->
        history_operand ~cmd:"gate" ~db_path db file
      | Some file ->
        let cdb = Ph_perf.Db.load file in
        let c = last_commit cdb in
        Printf.sprintf "%s@%s" file c, Ph_perf.Db.rows_for cdb c
      | None ->
        let records = history_records (Option.value suite ~default:"ft") in
        "fresh-run", rows_of_records ~commit:"fresh-run" records
    in
    Printf.printf
      "=== history gate: %s (baseline, %d rows) vs %s (candidate, %d rows), \
       threshold +%.1f%% ===\n"
      base_label (List.length baseline) cand_label (List.length cand_rows)
      threshold;
    let r =
      Ph_perf.History.gate ~threshold ~baseline ~candidate:cand_rows
    in
    print_summaries r.Ph_perf.History.summaries;
    List.iter
      (fun (s : Ph_perf.History.summary) ->
        Printf.printf
          "note: ungated counter %s grew %.3fx (recorded, never gated)\n"
          s.counter s.ratio)
      r.Ph_perf.History.ungated_regressions;
    (match r.Ph_perf.History.failures with
    | [] ->
      Printf.printf "history gate: OK (threshold +%.1f%%)\n" threshold;
      0
    | fs ->
      Printf.printf "history gate: FAILED (threshold +%.1f%%): %s\n" threshold
        (String.concat ", "
           (List.map
              (fun (s : Ph_perf.History.summary) ->
                Printf.sprintf "%s %.3fx" s.counter s.ratio)
              fs));
      1)
  | _ -> usage ()

let () =
  let json_path, args = extract_opt "--json" (List.tl (Array.to_list Sys.argv)) in
  if List.mem "--lint" args then bench_lint := Lint.Diag.Warn;
  let args = List.filter (( <> ) "--lint") args in
  let jobs, args = extract_count "--jobs" ~default:1 args in
  bench_jobs := jobs;
  let sched_jobs, args = extract_count "--sched-jobs" ~default:1 args in
  bench_sched_jobs := sched_jobs;
  let cache_dir, args = extract_opt "--cache" args in
  bench_cache := Option.map (fun dir -> Ph_pool.Cache.create ~dir ()) cache_dir;
  (match args with
  | [ "compare"; a; b ] -> exit (compare_reports a b)
  | "compare" :: _ -> usage ()
  | "history" :: rest -> exit (history_entry rest)
  | [ "timing" ] -> timing ()
  | name :: filters when List.mem_assoc name experiments ->
    (List.assoc name experiments) filters
  | [] -> List.iter (fun (_, f) -> f []) experiments
  | _ -> usage ());
  Option.iter write_json json_path;
  Option.iter
    (fun cache -> print_endline (Ph_pool.Cache.summary (Ph_pool.Cache.counters cache)))
    !bench_cache
