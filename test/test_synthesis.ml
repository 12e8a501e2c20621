open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_schedule
open Ph_synthesis
open Ph_verify

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let term s w = Pauli_term.make (Pauli_string.of_string s) w

let program_of_strings ?(param = 0.3) n strs =
  Program.make n
    (List.map (fun (s, w) -> Block.make [ term s w ] (Block.fixed param)) strs)

(* Random small programs for property tests. *)
let gen_program n =
  QCheck.Gen.(
    let gen_op = oneofl Pauli.all in
    let gen_str =
      map
        (fun ops ->
          let s = Pauli_string.of_ops (Array.of_list ops) in
          if Pauli_string.is_identity s then
            Pauli_string.of_support n [ 0, Pauli.Z ]
          else s)
        (list_repeat n gen_op)
    in
    let gen_term = map2 (fun s w -> Pauli_term.make s (0.1 +. w)) gen_str (float_bound_inclusive 1.) in
    let gen_block =
      map2
        (fun ts p -> Block.make ts (Block.fixed (0.1 +. p)))
        (list_size (int_range 1 3) gen_term)
        (float_bound_inclusive 1.)
    in
    map (Program.make n) (list_size (int_range 1 5) gen_block))

let arb_program n =
  QCheck.make
    ~print:Parser.to_text
    (gen_program n)

(* --- Naive synthesis --- *)

let test_naive_single_zz () =
  let prog = program_of_strings 2 [ "ZZ", 1.0 ] in
  let r = Naive.synthesize prog in
  check_int "2 cnots" 2 (Circuit.cnot_count r.circuit);
  check_int "1 rz" 1 (Circuit.single_qubit_count r.circuit);
  check "implements kernel" true (Unitary_check.circuit_implements r.circuit r.rotations);
  check "rotation trace matches program" true
    (r.rotations = Program.rotations prog)

let test_naive_gate_shapes () =
  (* XX: 2 CNOT + 4 H + 1 Rz;  YY: 2 CNOT + 4 Rx + 1 Rz. *)
  let r = Naive.synthesize (program_of_strings 2 [ "XX", 1.0 ]) in
  check_int "xx cnots" 2 (Circuit.cnot_count r.circuit);
  check_int "xx singles" 5 (Circuit.single_qubit_count r.circuit);
  let r = Naive.synthesize (program_of_strings 2 [ "YY", 1.0 ]) in
  check_int "yy singles" 5 (Circuit.single_qubit_count r.circuit)

let test_naive_correct_all_ops () =
  List.iter
    (fun s ->
      let prog = program_of_strings 3 [ s, 0.7 ] in
      let r = Naive.synthesize prog in
      check (Printf.sprintf "exp(%s) correct" s) true
        (Unitary_check.circuit_implements r.circuit r.rotations))
    [ "XYZ"; "ZIZ"; "YIY"; "XXI"; "IZY"; "ZZZ"; "XII"; "IYI" ]

let prop_naive_correct =
  QCheck.Test.make ~name:"naive synthesis implements the kernel" ~count:40
    (arb_program 3)
    (fun prog ->
      let r = Naive.synthesize prog in
      Unitary_check.circuit_implements r.circuit r.rotations
      && Pauli_frame.verify_ft r.circuit ~trace:r.rotations)

(* --- FT backend --- *)

let ft_compile ?(schedule = `Gco) prog =
  let layers =
    match schedule with
    | `Gco -> Gco.schedule prog
    | `Do -> Depth_oriented.schedule prog
  in
  Ft_backend.synthesize ~n_qubits:(Program.n_qubits prog) layers

let test_ft_cancellation_zzy_zzi () =
  (* Figure 4(a): adjacent ZZY and ZZI admit two CNOT cancellations. *)
  let prog = program_of_strings 3 [ "ZZY", 1.0; "ZZI", 1.0 ] in
  let r = ft_compile prog in
  let optimized = Peephole.optimize r.circuit in
  check "correct before peephole" true
    (Unitary_check.circuit_implements r.circuit r.rotations);
  check "correct after peephole" true
    (Unitary_check.circuit_implements optimized r.rotations);
  let naive = Naive.synthesize prog in
  check
    (Printf.sprintf "fewer cnots than naive (%d < %d)"
       (Circuit.cnot_count optimized)
       (Circuit.cnot_count naive.circuit))
    true
    (Circuit.cnot_count optimized < Circuit.cnot_count naive.circuit)

let test_ft_identical_strings_fuse () =
  (* Two identical strings back to back: whole CNOT trees cancel, the two
     Rz merge. *)
  let prog = program_of_strings 4 [ "ZXZY", 1.0; "ZXZY", 1.0 ] in
  let r = ft_compile prog in
  let optimized = Peephole.optimize r.circuit in
  check_int "only one tree survives" 6 (Circuit.cnot_count optimized);
  check "correct" true (Unitary_check.circuit_implements optimized r.rotations)

let test_ft_preserves_multiset () =
  let prog =
    Program.make 3
      [
        Block.make [ term "ZZI" 1.0; term "IZZ" 0.5 ] (Block.fixed 0.2);
        Block.make [ term "XXX" 0.7 ] (Block.fixed 0.4);
      ]
  in
  let r = ft_compile prog in
  check_int "all terms lowered" 3 (List.length r.rotations)

let prop_ft_correct_gco =
  QCheck.Test.make ~name:"FT backend correct under GCO scheduling" ~count:40
    (arb_program 3)
    (fun prog ->
      let r = ft_compile ~schedule:`Gco prog in
      let optimized = Peephole.optimize r.circuit in
      Unitary_check.circuit_implements optimized r.rotations
      && Pauli_frame.verify_ft r.circuit ~trace:r.rotations)

let prop_ft_correct_do =
  QCheck.Test.make ~name:"FT backend correct under DO scheduling" ~count:40
    (arb_program 4)
    (fun prog ->
      let r = ft_compile ~schedule:`Do prog in
      let optimized = Peephole.optimize r.circuit in
      Unitary_check.circuit_implements optimized r.rotations)

(* The paper's claim is aggregate, not per-instance: over a seeded sample
   of random programs, scheduled+adaptive synthesis must not lose to
   naive synthesis on total CNOTs. *)
let test_ft_aggregate_beats_naive () =
  let rand = Random.State.make [| 42 |] in
  let gen = gen_program 4 in
  let ft_total = ref 0 and naive_total = ref 0 in
  for _ = 1 to 40 do
    let prog = gen rand in
    ft_total := !ft_total + Circuit.cnot_count (Peephole.optimize (ft_compile prog).circuit);
    naive_total :=
      !naive_total + Circuit.cnot_count (Peephole.optimize (Naive.synthesize prog).circuit)
  done;
  check
    (Printf.sprintf "aggregate ft=%d <= naive=%d" !ft_total !naive_total)
    true
    (!ft_total <= !naive_total)

(* --- SC backend --- *)

let sc_compile ?(coupling = Devices.line 4) prog =
  let layers = Depth_oriented.schedule prog in
  Sc_backend.synthesize ~coupling ~n_qubits:(Program.n_qubits prog) layers

let test_sc_respects_coupling () =
  let coupling = Devices.line 4 in
  let prog = program_of_strings 4 [ "ZIIZ", 1.0; "XXII", 0.5 ] in
  let r = sc_compile ~coupling prog in
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (a, b) | Gate.Swap (a, b) ->
        check
          (Printf.sprintf "%s respects coupling" (Gate.to_string g))
          true (Coupling.adjacent coupling a b)
      | _ -> ())
    (Circuit.gates r.circuit)

let test_sc_correct_line () =
  let prog = program_of_strings 4 [ "ZIIZ", 1.0; "XXII", 0.5; "IYYI", 0.3 ] in
  let r = sc_compile prog in
  check "dense equivalence" true
    (Unitary_check.sc_circuit_implements ~circuit:r.circuit ~rotations:r.rotations
       ~initial:r.initial_layout ~final:r.final_layout);
  check "pauli-frame equivalence" true
    (Pauli_frame.verify_sc ~circuit:r.circuit ~trace:r.rotations
       ~initial:r.initial_layout ~final:r.final_layout)

let prop_sc_correct =
  QCheck.Test.make ~name:"SC backend correct on a 2x2 grid" ~count:30
    (arb_program 4)
    (fun prog ->
      let coupling = Devices.grid 2 2 in
      let r = sc_compile ~coupling prog in
      Pauli_frame.verify_sc ~circuit:r.circuit ~trace:r.rotations
        ~initial:r.initial_layout ~final:r.final_layout
      && Unitary_check.sc_circuit_implements ~circuit:r.circuit ~rotations:r.rotations
           ~initial:r.initial_layout ~final:r.final_layout)

let prop_sc_correct_line5 =
  QCheck.Test.make ~name:"SC backend correct on line-5 (peephole too)" ~count:20
    (arb_program 4)
    (fun prog ->
      let coupling = Devices.line 5 in
      let r = sc_compile ~coupling prog in
      let optimized = Peephole.optimize (Circuit.decompose_swaps r.circuit) in
      Unitary_check.sc_circuit_implements ~circuit:optimized ~rotations:r.rotations
        ~initial:r.initial_layout ~final:r.final_layout)

let prop_sc_coupling_respected =
  QCheck.Test.make ~name:"SC output always obeys the coupling map" ~count:30
    (arb_program 5)
    (fun prog ->
      let coupling = Devices.line 5 in
      let r = sc_compile ~coupling prog in
      Array.for_all
        (fun g ->
          match g with
          | Gate.Cnot (a, b) | Gate.Swap (a, b) -> Coupling.adjacent coupling a b
          | _ -> true)
        (Circuit.gates r.circuit))

let test_sc_parallel_small_blocks () =
  (* DO pads disjoint small blocks into a leader's layer; on a wide
     device the SC backend synthesizes them without disturbing the
     leader, and the measured depth shows the parallelism. *)
  let prog =
    program_of_strings 8
      [ "ZZZZIIII", 1.0; "IIIIIZZI", 0.5; "IIIIIIZZ", 0.4; "ZZZYIIII", 0.8 ]
  in
  let coupling = Devices.grid 2 4 in
  let layers = Depth_oriented.schedule prog in
  let r = Sc_backend.synthesize ~coupling ~n_qubits:8 layers in
  check "verified" true
    (Pauli_frame.verify_sc ~circuit:r.circuit ~trace:r.rotations
       ~initial:r.initial_layout ~final:r.final_layout);
  let c = Circuit.decompose_swaps r.circuit in
  check
    (Printf.sprintf "depth %d < serial total %d" (Circuit.depth c) (Circuit.total_count c))
    true
    (Circuit.depth c < Circuit.total_count c)

let test_sc_scale_manhattan () =
  (* A 20-qubit, ~100-string random kernel on the 65-qubit device:
     tableau-verified end to end. *)
  let prog = Ph_benchmarks.Random_h.program ~seed:8 ~density:0.25 ~n_qubits:20 () in
  let layers = Depth_oriented.schedule prog in
  let r = Sc_backend.synthesize ~coupling:Devices.manhattan ~n_qubits:20 layers in
  check "verified at scale" true
    (Pauli_frame.verify_sc ~circuit:r.circuit ~trace:r.rotations
       ~initial:r.initial_layout ~final:r.final_layout)

let test_sc_swap_counter () =
  (* The telemetry counter must equal the SWAPs actually present in the
     emitted circuit, before decompose_swaps rewrites them into CNOTs. *)
  let count_swaps c =
    Array.fold_left
      (fun n g -> match g with Gate.Swap _ -> n + 1 | _ -> n)
      0 (Circuit.gates c)
  in
  let check_prog prog coupling n_qubits =
    let layers = Depth_oriented.schedule prog in
    let r = Sc_backend.synthesize ~coupling ~n_qubits layers in
    Alcotest.(check int) "swaps counter matches emitted SWAPs"
      (count_swaps r.circuit) r.swaps
  in
  check_prog
    (program_of_strings 8
       [ "ZZZZIIII", 1.0; "IIIIIZZI", 0.5; "IIIIIIZZ", 0.4; "ZZZYIIII", 0.8 ])
    (Devices.grid 2 4) 8;
  (* a long-range string on a line forces routing, so the counter is
     exercised on a circuit that genuinely contains SWAPs *)
  let r =
    Sc_backend.synthesize ~coupling:(Devices.line 5) ~n_qubits:5
      (Depth_oriented.schedule (program_of_strings 5 [ "ZIIIZ", 1.0; "XIXIX", 0.7 ]))
  in
  Alcotest.(check int) "swaps counter matches on routed circuit"
    (count_swaps r.circuit) r.swaps;
  check "routing produced swaps" true (r.swaps > 0)

let test_ft_cancellation_across_padding () =
  (* Two near-identical wide strings separated by a disjoint small one:
     the partner search skips the padding and junction cancellation still
     fires. *)
  let prog =
    program_of_strings 6 [ "ZZZZII", 1.0; "IIIIZZ", 0.5; "ZZZYII", 0.7 ]
  in
  let r = Ft_backend.synthesize ~n_qubits:6 (List.map Ph_schedule.Layer.of_block (Program.blocks prog)) in
  let optimized = Peephole.optimize r.circuit in
  check "correct" true (Unitary_check.circuit_implements optimized r.rotations);
  (* naive: 6 + 2 + 6 = 14 cnots; shared ZZZ prefix cancels 2·2 = 4 *)
  check
    (Printf.sprintf "cancellation across padding (%d <= 10)" (Circuit.cnot_count optimized))
    true
    (Circuit.cnot_count optimized <= 10)

(* --- Emit helpers --- *)

let test_emit_angle () =
  Alcotest.(check (float 1e-12)) "theta = 2wt" 0.3
    (Emit.angle (Block.fixed 0.5) 0.3)

let test_emit_chain_validation () =
  let b = Circuit.Builder.create 3 in
  Alcotest.check_raises "order must match support"
    (Invalid_argument "Emit.emit_chain: order must enumerate the support")
    (fun () ->
      Emit.emit_chain b (Pauli_string.of_string "ZZI") ~order:[ 0; 1 ] ~theta:0.1)

let () =
  Alcotest.run "synthesis"
    [
      ( "naive",
        [
          Alcotest.test_case "ZZ rotation" `Quick test_naive_single_zz;
          Alcotest.test_case "basis-change gate shapes" `Quick test_naive_gate_shapes;
          Alcotest.test_case "correct on mixed operators" `Quick test_naive_correct_all_ops;
          qcheck prop_naive_correct;
        ] );
      ( "ft",
        [
          Alcotest.test_case "Figure 4a cancellation" `Quick test_ft_cancellation_zzy_zzi;
          Alcotest.test_case "identical strings fuse" `Quick test_ft_identical_strings_fuse;
          Alcotest.test_case "all terms lowered" `Quick test_ft_preserves_multiset;
          qcheck prop_ft_correct_gco;
          qcheck prop_ft_correct_do;
          Alcotest.test_case "aggregate beats naive" `Quick test_ft_aggregate_beats_naive;
        ] );
      ( "sc",
        [
          Alcotest.test_case "respects coupling" `Quick test_sc_respects_coupling;
          Alcotest.test_case "correct on a line" `Quick test_sc_correct_line;
          qcheck prop_sc_correct;
          qcheck prop_sc_correct_line5;
          qcheck prop_sc_coupling_respected;
          Alcotest.test_case "parallel small blocks" `Quick test_sc_parallel_small_blocks;
          Alcotest.test_case "20q on manhattan" `Quick test_sc_scale_manhattan;
          Alcotest.test_case "swap counter" `Quick test_sc_swap_counter;
          Alcotest.test_case "cancellation across padding" `Quick
            test_ft_cancellation_across_padding;
        ] );
      ( "emit",
        [
          Alcotest.test_case "angle convention" `Quick test_emit_angle;
          Alcotest.test_case "chain validation" `Quick test_emit_chain_validation;
        ] );
    ]
