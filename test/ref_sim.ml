(* Reference simulator: a direct interpreter that evaluates every node
   with its [Bitvec] op, looking arguments up by [Circuit.node_index] and
   keeping register state by uid. It is the oracle the compiled [Sim] is
   checked against, node by node and cycle by cycle, in test_sim. *)

module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

type t = {
  circuit : Circuit.t;
  values : Bitvec.t array; (* indexed by Circuit.node_index *)
  state : (int, Bitvec.t) Hashtbl.t; (* register uid -> current value *)
  inputs : (string, Bitvec.t ref) Hashtbl.t;
}

let reset t =
  List.iter
    (fun r -> Hashtbl.replace t.state (Signal.uid r) (Signal.reg_of r).Signal.init)
    (Circuit.regs t.circuit);
  Hashtbl.iter (fun _ v -> v := Bitvec.zero (Bitvec.width !v)) t.inputs

let create circuit =
  let t =
    {
      circuit;
      values = Array.map (fun s -> Bitvec.zero (Signal.width s)) (Circuit.topo circuit);
      state = Hashtbl.create 64;
      inputs = Hashtbl.create 16;
    }
  in
  List.iter
    (fun p ->
      Hashtbl.replace t.inputs p.Circuit.port_name
        (ref (Bitvec.zero (Signal.width p.Circuit.signal))))
    (Circuit.inputs circuit);
  reset t;
  t

let set_input t name v = Hashtbl.find t.inputs name := v

(* Evaluates the whole circuit on every call; the reference trades
   speed for directness. *)
let eval t =
  Array.iteri
    (fun i s ->
      let v =
        match Signal.op s with
        | Signal.Const v -> v
        | Signal.Input n -> !(Hashtbl.find t.inputs n)
        | Signal.Reg _ -> Hashtbl.find t.state (Signal.uid s)
        | op -> (
            let arg k = t.values.(Circuit.node_index t.circuit (Signal.args s).(k)) in
            match op with
            | Signal.Not -> Bitvec.lognot (arg 0)
            | Signal.And -> Bitvec.logand (arg 0) (arg 1)
            | Signal.Or -> Bitvec.logor (arg 0) (arg 1)
            | Signal.Xor -> Bitvec.logxor (arg 0) (arg 1)
            | Signal.Add -> Bitvec.add (arg 0) (arg 1)
            | Signal.Sub -> Bitvec.sub (arg 0) (arg 1)
            | Signal.Mul -> Bitvec.mul (arg 0) (arg 1)
            | Signal.Eq -> Bitvec.of_bool (Bitvec.equal (arg 0) (arg 1))
            | Signal.Ult -> Bitvec.of_bool (Bitvec.ult (arg 0) (arg 1))
            | Signal.Slt -> Bitvec.of_bool (Bitvec.slt (arg 0) (arg 1))
            | Signal.Mux -> if Bitvec.bit (arg 0) 0 then arg 1 else arg 2
            | Signal.Concat ->
                Bitvec.concat_list
                  (Array.to_list (Array.mapi (fun k _ -> arg k) (Signal.args s)))
            | Signal.Slice (hi, lo) -> Bitvec.extract ~hi ~lo (arg 0)
            | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> assert false)
      in
      t.values.(i) <- v)
    (Circuit.topo t.circuit)

(* Every node's current value, in [Circuit.topo] order. *)
let values t =
  eval t;
  Array.copy t.values

let step t =
  eval t;
  (* Read every next value before latching: updates must be simultaneous. *)
  let updates =
    List.map
      (fun r ->
        let next = Option.get (Signal.reg_of r).Signal.next in
        (Signal.uid r, t.values.(Circuit.node_index t.circuit next)))
      (Circuit.regs t.circuit)
  in
  List.iter (fun (uid, v) -> Hashtbl.replace t.state uid v) updates
