open Ph_pauli

let trotterize ~n_qubits ~terms ~time ~steps =
  if steps <= 0 then invalid_arg "Trotter.trotterize: steps must be positive";
  let dt = time /. float_of_int steps in
  let one_step =
    List.map (fun (t : Pauli_term.t) -> Block.make [ t ] (Block.fixed dt)) terms
  in
  let blocks = List.concat (List.init steps (fun _ -> one_step)) in
  Program.make n_qubits blocks

let second_order ~n_qubits ~terms ~time ~steps =
  if steps <= 0 then invalid_arg "Trotter.second_order: steps must be positive";
  let half = time /. float_of_int steps /. 2. in
  let forward =
    List.map (fun (t : Pauli_term.t) -> Block.make [ t ] (Block.fixed half)) terms
  in
  let one_step = forward @ List.rev forward in
  Program.make n_qubits (List.concat (List.init steps (fun _ -> one_step)))

let qaoa_layer ~n_qubits ~terms ~gamma =
  Program.make n_qubits [ Block.make terms (Block.symbolic "gamma" gamma) ]
