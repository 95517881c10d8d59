(* Differential tests of the compiled simulator: every node's value in
   every cycle must equal the reference interpreter's (ref_sim.ml), on
   random narrow circuits and on circuits built around the 62-bit
   boundary between int and Bitvec evaluation. A [reset] followed by a
   rerun of the same trace on the same instance must reproduce the first
   run, so reusing one compiled simulator cannot leak state. *)

module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

(* Per cycle, each input is driven with probability 1/2 and otherwise
   keeps its previous value (zero after a reset). *)
let random_trace st circuit ~cycles =
  List.init cycles (fun _ ->
      List.filter_map
        (fun p ->
          if Random.State.bool st then
            Some (p.Circuit.port_name, Bitvec.random st (Signal.width p.Circuit.signal))
          else None)
        (Circuit.inputs circuit))

let run_compiled sim circuit trace =
  List.map
    (fun assignments ->
      List.iter (fun (n, v) -> Sim.set_input sim n v) assignments;
      let values = Array.map (Sim.peek sim) (Circuit.topo circuit) in
      Sim.step sim;
      values)
    trace

let run_reference circuit trace =
  let sim = Ref_sim.create circuit in
  List.map
    (fun assignments ->
      List.iter (fun (n, v) -> Ref_sim.set_input sim n v) assignments;
      let values = Ref_sim.values sim in
      Ref_sim.step sim;
      values)
    trace

let same_values a b =
  List.for_all2
    (Array.for_all2 (fun x y -> Bitvec.width x = Bitvec.width y && Bitvec.equal x y))
    a b

let agrees st circuit ~cycles =
  let trace = random_trace st circuit ~cycles in
  let sim = Sim.create circuit in
  let first = run_compiled sim circuit trace in
  Sim.reset sim;
  let again = run_compiled sim circuit trace in
  same_values first (run_reference circuit trace) && same_values again first

let boundary_widths = [| 1; 31; 32; 61; 62; 63; 64; 100 |]

(* Random circuits over inputs and registers of [boundary_widths], plus
   fixed nodes that put [Mul], [Sub] and [Slt] at every boundary width,
   [Concat]s that end just below, at and just above 62 bits, and
   [Slice]s of wide nodes that land on either side of it. Every node is
   an output, so every node is simulated. *)
let boundary_circuit st ~num_nodes =
  let width () = boundary_widths.(Random.State.int st (Array.length boundary_widths)) in
  let inputs =
    Array.to_list (Array.mapi (fun i w -> Signal.input (Printf.sprintf "i%d" i) w) boundary_widths)
  in
  let regs =
    List.init 3 (fun i ->
        let w = width () in
        Signal.reg ~init:(Bitvec.random st w) (Printf.sprintf "r%d" i) w)
  in
  let pool = ref (inputs @ regs) in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let pick_width w =
    match List.filter (fun s -> Signal.width s = w) !pool with
    | [] -> Signal.uresize (pick ()) w
    | l -> List.nth l (Random.State.int st (List.length l))
  in
  let nodes = ref [] in
  let add s =
    pool := s :: !pool;
    nodes := s :: !nodes
  in
  Array.iter
    (fun w ->
      let a = pick_width w and b = pick_width w in
      List.iter add [ Signal.( *: ) a b; Signal.( -: ) a b; Signal.slt a b ])
    boundary_widths;
  List.iter
    (fun (wa, wb) -> add (Signal.concat [ pick_width wa; pick_width wb ]))
    [ (31, 31); (1, 61); (1, 62); (31, 32); (32, 32) ];
  List.iter
    (fun (w, hi, lo) -> add (Signal.select (pick_width w) hi lo))
    [ (100, 80, 20); (100, 99, 37); (100, 61, 0); (64, 63, 63); (63, 62, 1) ];
  for _ = 1 to num_nodes do
    let a = pick () in
    let w = Signal.width a in
    let b = pick_width w in
    add
      (match Random.State.int st 14 with
      | 0 -> Signal.( ~: ) a
      | 1 -> Signal.( &: ) a b
      | 2 -> Signal.( |: ) a b
      | 3 -> Signal.( ^: ) a b
      | 4 -> Signal.( +: ) a b
      | 5 -> Signal.( -: ) a b
      | 6 -> Signal.( *: ) a b
      | 7 -> Signal.( ==: ) a b
      | 8 -> Signal.( <: ) a b
      | 9 -> Signal.slt a b
      | 10 -> Signal.mux2 (pick_width 1) a b
      | 11 ->
          let c = pick () in
          if w + Signal.width c <= 200 then Signal.concat [ a; c ] else Signal.( ~: ) a
      | 12 ->
          let hi = Random.State.int st w in
          Signal.select a hi (Random.State.int st (hi + 1))
      | _ -> Signal.const (Bitvec.random st w))
  done;
  List.iter (fun r -> Signal.reg_set_next r (pick_width (Signal.width r))) regs;
  Circuit.create ~name:"boundary"
    ~outputs:(List.mapi (fun i s -> (Printf.sprintf "o%d" i, s)) (regs @ !nodes))
    ()

let seeded name ~count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(make Gen.(int_bound 1_000_000)) (fun seed ->
         prop (Random.State.make [| seed |])))

let () =
  Alcotest.run "sim"
    [
      ( "differential",
        [
          seeded "narrow circuits match the reference" ~count:400 (fun st ->
              let circuit =
                Gen_circuit.random_circuit st
                  ~num_nodes:(5 + Random.State.int st 40)
                  ~num_regs:(Random.State.int st 4)
              in
              agrees st circuit ~cycles:8);
          seeded "boundary widths match the reference" ~count:300 (fun st ->
              agrees st
                (boundary_circuit st ~num_nodes:(Random.State.int st 30))
                ~cycles:6);
        ] );
    ]
