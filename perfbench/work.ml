(* Workload definitions: every input is generated here from the seed and
   handed to the program under test as Pauli IR text.  Why each workload
   exists is recorded in README.md next to this file. *)

open Paulihedral
module B = Ph_benchmarks
module Program = Ph_pauli_ir.Program
module Protocol = Ph_serve.Protocol

(* One distinct compile: a generated program under one configuration. *)
type spec = {
  name : string;  (** record [bench] label, unique within a workload *)
  text : string;  (** generated Pauli IR source *)
  terms : int;
  backend : string;
  device : string;
  schedule : Config.schedule;
  config : Config.t;
  config_name : string;
}

(* The open-loop traffic of one serve session: a warm-up step, which is
   not measured, then a step at the nominal rate and a short burst at
   the overload rate.  A run replays it in [sessions] sessions, each
   against a freshly started daemon. *)
type step = Warmup | Nominal | Burst

type request = {
  step : step;
  due : float;  (** seconds from the start of the traffic *)
  spec : int;  (** index into [specs] *)
}

type serve_plan = {
  specs : spec array;  (** distinct programs the requests draw from *)
  requests : request array;
  limit_ms : float;  (** latency limit a goodput reply must meet *)
}

type t = {
  batch : spec list;  (** batch jobs in their fixed order *)
  batch_budget_s : float;
  serve : serve_plan;
}

let names = [ "ft-wide"; "chem"; "serve-mix" ]

(* Pauli IR source of [prog], parameters as numbers; "%.17g" reads
   back as the same float. *)
let text_of_program prog =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (b : Ph_pauli_ir.Block.t) ->
      Buffer.add_char buf '{';
      List.iter
        (fun (t : Ph_pauli.Pauli_term.t) ->
          Printf.bprintf buf "(%s, %.17g), "
            (Ph_pauli.Pauli_string.to_string t.Ph_pauli.Pauli_term.str)
            t.Ph_pauli.Pauli_term.coeff)
        (Ph_pauli_ir.Block.terms b);
      Printf.bprintf buf "%.17g};\n" (Ph_pauli_ir.Block.param b).Ph_pauli_ir.Block.value)
    (Program.blocks prog);
  Buffer.contents buf

let spec ~name ~backend ~schedule prog =
  let device = "manhattan" in
  let config =
    match
      Protocol.config_for ~backend ~device ~schedule ~lint:Lint.Diag.Off
        ~window:Config.default_window ()
    with
    | Ok c -> c
    | Error (`Msg m) -> failwith m
  in
  {
    name;
    text = text_of_program prog;
    terms = Program.term_count prog;
    backend;
    device;
    schedule;
    config;
    config_name = Protocol.config_name ~backend ~device ~schedule;
  }

let ft_do = "ft", Config.Depth_oriented
let ft_phx = "ft", Config.Phoenix_like
let ft_gco = "ft", Config.Gco
let sc_do = "sc", Config.Depth_oriented

(* [random_h ~seed ~n ~strings] — [Random_h.program] sized by string count
   rather than density. *)
let random_h ~seed ~n ~strings =
  B.Random_h.program ~seed
    ~density:(float_of_int strings /. float_of_int (n * n))
    ~n_qubits:n ()

(* Serve-traffic programs of each family.  The program kind and the
   configuration cycle deterministically with [k]; the seed only draws
   the instance, so the traffic's composition is the same for every
   seed. *)
let serve_program workload ~smoke ~seed k =
  let rand = Random.State.make [| seed; k; 17 |] in
  let pick l = List.nth l (k mod List.length l) in
  let backend, schedule, prog =
    match workload with
    | "ft-wide" ->
      let n = 14 + (2 * (k mod 4)) in
      let strings = if smoke then 8 else 12 + (6 * (k mod 4)) in
      let backend, schedule = pick [ ft_do; ft_phx ] in
      backend, schedule, random_h ~seed:(Random.State.bits rand) ~n ~strings
    | "chem" ->
      let n = 8 + (2 * (k mod 2)) in
      let target = if smoke then 24 else 30 + (10 * (k mod 3)) in
      let backend, schedule = pick [ ft_do; sc_do; ft_phx ] in
      ( backend,
        schedule,
        B.Molecule.synthetic ~seed:(Random.State.bits rand) ~n_qubits:n
          ~target_strings:target () )
    | _ ->
      (* sizes cycle with [k] too, so the mix costs the same for
         every seed *)
      let backend, schedule = pick [ ft_do; ft_gco; ft_phx; sc_do ] in
      let dt = 0.05 +. Random.State.float rand 0.2 in
      let size = k / 20 in
      let prog =
        match (k / 4) mod 5 with
        | 0 ->
          B.Qaoa.maxcut
            (B.Graphs.regular ~seed:(Random.State.bits rand) (10 + (2 * (size mod 4))) 3)
            ~gamma:dt
        | 1 ->
          let dims = if size mod 2 = 0 then [ 12 ] else [ 3; 4 ] in
          B.Heisenberg.program ~j:(1. +. dt) ~dims ~dt ()
        | 2 ->
          let dims = if size mod 2 = 0 then [ 16 ] else [ 4; 4 ] in
          B.Ising.program ~j:(1. +. dt) ~dims ~dt ()
        | 3 ->
          B.Uccsd.ansatz ~seed:(Random.State.bits rand)
            ~max_doubles:(if smoke then 2 else 6 + (size mod 6))
            ~n_qubits:8 ()
        | _ ->
          B.Uccsd.ansatz ~seed:(Random.State.bits rand) ~max_singles:4
            ~max_doubles:(if smoke then 2 else 4 + (size mod 4))
            ~n_qubits:12 ()
      in
      backend, schedule, prog
  in
  spec ~name:(Printf.sprintf "s%d" k) ~backend ~schedule prog

let batch_jobs workload ~smoke ~seed =
  match workload with
  | "ft-wide" ->
    let n, strings = if smoke then 24, 60 else 128, 600 in
    let p = random_h ~seed ~n ~strings in
    let label = Printf.sprintf "rand%d" n in
    [
      spec ~name:(label ^ "-do") ~backend:"ft" ~schedule:Config.Depth_oriented p;
      spec ~name:(label ^ "-phx") ~backend:"ft" ~schedule:Config.Phoenix_like p;
    ]
  | "chem" ->
    let n, strings, uccsd = if smoke then 12, 200, [ 8 ] else 32, 3000, [ 20; 24 ] in
    let mol = B.Molecule.synthetic ~seed ~n_qubits:n ~target_strings:strings () in
    let label = Printf.sprintf "mol%d" n in
    [
      spec ~name:(label ^ "-ft") ~backend:"ft" ~schedule:Config.Depth_oriented mol;
      spec ~name:(label ^ "-sc") ~backend:"sc" ~schedule:Config.Depth_oriented mol;
    ]
    @ List.map
        (fun q ->
          spec
            ~name:(Printf.sprintf "uccsd%d-sc" q)
            ~backend:"sc" ~schedule:Config.Depth_oriented
            (B.Uccsd.ansatz ~n_qubits:q ()))
        uccsd
  | _ -> []

(* Offered rates (requests/s) of the nominal and overload steps, and
   the latency limit (ms) of a goodput reply.  Both rates were fixed
   from the capacity measured for each traffic (see README.md): nominal
   at a fifth of it or less, overload at about twice. *)
let rates workload ~smoke =
  if smoke then 40., 120., 150.
  else
    match workload with
    | "ft-wide" -> 100., 1200., 150.
    | "chem" -> 100., 1000., 150.
    | _ -> 100., 950., 150.

(* serve-mix's batch step compiles this many of its distinct programs
   (twelve of each kind and configuration), pass after pass, so every
   job's time is a median over several passes *)
let serve_mix_batch = 240

(* Serve sessions per run, and step lengths in seconds. *)
let sessions = 5
let warmup_s = 0.5
let burst_s = 0.3

let make ~smoke ~seconds ~seed workload =
  if not (List.mem workload names) then
    invalid_arg ("unknown workload " ^ workload);
  let nominal_rps, overload_rps, limit_ms = rates workload ~smoke in
  let nominal_s = 0.05 *. seconds in
  let steps =
    [
      Warmup, 0., warmup_s, nominal_rps;
      Nominal, warmup_s, nominal_s, nominal_rps;
      Burst, warmup_s +. nominal_s, burst_s, overload_rps;
    ]
  in
  let timed =
    List.concat_map
      (fun (step, start, length, rate) ->
        let n = max 1 (int_of_float (rate *. length)) in
        List.init n (fun k -> step, start +. (float_of_int k /. rate)))
      steps
    |> Array.of_list
  in
  let n = Array.length timed in
  (* two requests in every five repeat an earlier program, which the
     daemon's cache answers.  The pattern is fixed, so every seed's
     nominal step has the same share of cache hits, and below half, so
     the median latency falls among the compiles, not on the seam
     between hits and compiles. *)
  let rand = Random.State.make [| seed; 29 |] in
  let choice = Array.make n 0 in
  let fresh = ref 0 in
  for i = 0 to n - 1 do
    if i mod 5 = 1 || i mod 5 = 3 then
      choice.(i) <- choice.(Random.State.int rand i)
    else begin
      choice.(i) <- !fresh;
      incr fresh
    end
  done;
  let specs = Array.init !fresh (serve_program workload ~smoke ~seed) in
  {
    batch =
      (if workload = "serve-mix" then
         List.filteri (fun i _ -> i < serve_mix_batch) (Array.to_list specs)
       else batch_jobs workload ~smoke ~seed);
    batch_budget_s = 0.75 *. seconds;
    serve =
      {
        specs;
        requests =
          Array.init n (fun i ->
              let step, due = timed.(i) in
              { step; due; spec = choice.(i) });
        limit_ms;
      };
  }

(* The compile request line of serve request [i] (its [id] is [i]). *)
let request_line plan i =
  let s = plan.specs.(plan.requests.(i).spec) in
  Ph_json.to_string
    (Protocol.request_to_json ~id:(Ph_json.Int i)
       (Protocol.compile_request ~name:s.name ~backend:s.backend
          ~device:s.device ~schedule:s.schedule s.text))
