module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

(* [create] compiles the circuit into one instruction per node of
   [Circuit.topo], with arguments resolved to topo indices. A node of at
   most [narrow] bits keeps its value as an unboxed [int] in [ints],
   masked to its width; a wider node keeps a [Bitvec.t] in [wides]. The
   slot of the other kind holds a placeholder. A node that is wide or
   reads a wide argument evaluates with the [Bitvec] op ([Wide]); every
   other node computes on [ints]. Constants, inputs and registers are
   [Hold]: their slots are written by [create]/[reset], [set_input] and
   [step], never by [eval]. *)

let narrow = 62
let mask w = (1 lsl w) - 1

type instr =
  | Hold
  | Not of int * int  (* arg, mask *)
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Add of int * int * int  (* a, b, mask *)
  | Sub of int * int * int
  | Mul of int * int * int
  | Eq of int * int
  | Ult of int * int
  | Slt of int * int * int  (* a, b, shift that sign-extends to the int *)
  | Mux of int * int * int  (* sel, on_true, on_false *)
  | Concat of int array  (* most significant first *)
  | Slice of int * int * int  (* arg, lo, mask *)
  | Wide of Signal.op * int array

type t = {
  circuit : Circuit.t;
  plan : instr array; (* indexed by Circuit.node_index *)
  width : int array;
  ints : int array;
  wides : Bitvec.t array;
  inputs : (string, int) Hashtbl.t; (* port name -> node index *)
  reg_node : int array; (* register node indices, in Circuit.regs order *)
  reg_next : int array; (* their next-state node indices *)
  reg_init : Bitvec.t array;
  latch_ints : int array; (* next values read before any is written *)
  latch_wides : Bitvec.t array;
  mutable dirty : bool; (* inputs or registers changed since last evaluation *)
  mutable cycle : int;
  mutable watched : (Signal.t * int * Bitvec.t list ref) list; (* values latest-first *)
}

let m_sim_steps = lazy (Obs.Metrics.counter "sim.steps")
let placeholder = Bitvec.zero 1

let compile index s =
  let w = Signal.width s in
  let args = Array.map index (Signal.args s) in
  let arg_wide = Array.exists (fun a -> Signal.width a > narrow) (Signal.args s) in
  match Signal.op s with
  | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> Hold
  | op when w > narrow || arg_wide -> Wide (op, args)
  | Signal.Not -> Not (args.(0), mask w)
  | Signal.And -> And (args.(0), args.(1))
  | Signal.Or -> Or (args.(0), args.(1))
  | Signal.Xor -> Xor (args.(0), args.(1))
  | Signal.Add -> Add (args.(0), args.(1), mask w)
  | Signal.Sub -> Sub (args.(0), args.(1), mask w)
  | Signal.Mul -> Mul (args.(0), args.(1), mask w)
  | Signal.Eq -> Eq (args.(0), args.(1))
  | Signal.Ult -> Ult (args.(0), args.(1))
  | Signal.Slt ->
      Slt (args.(0), args.(1), Sys.int_size - Signal.width (Signal.args s).(0))
  | Signal.Mux -> Mux (args.(0), args.(1), args.(2))
  | Signal.Concat -> Concat args
  | Signal.Slice (_, lo) -> Slice (args.(0), lo, mask w)

(* Store [v] in node [i]'s slot. *)
let store t i v =
  if t.width.(i) > narrow then t.wides.(i) <- v else t.ints.(i) <- Bitvec.to_int v

let value t i =
  if t.width.(i) > narrow then t.wides.(i)
  else Bitvec.of_int ~width:t.width.(i) t.ints.(i)

let reset t =
  Array.iteri (fun k i -> store t i t.reg_init.(k)) t.reg_node;
  Hashtbl.iter (fun _ i -> store t i (Bitvec.zero t.width.(i))) t.inputs;
  t.cycle <- 0;
  t.dirty <- true;
  List.iter (fun (_, _, log) -> log := []) t.watched

let create circuit =
  Obs.span "sim.create"
    ~attrs:[ ("circuit", Obs.Json.Str (Circuit.name circuit)) ]
  @@ fun () ->
  let topo = Circuit.topo circuit in
  let n = Array.length topo in
  let index = Circuit.node_index circuit in
  let regs = Array.of_list (Circuit.regs circuit) in
  let t =
    {
      circuit;
      plan = Array.map (compile index) topo;
      width = Array.map Signal.width topo;
      ints = Array.make n 0;
      wides = Array.make n placeholder;
      inputs = Hashtbl.create 16;
      reg_node = Array.map index regs;
      reg_next =
        Array.map (fun r -> index (Option.get (Signal.reg_of r).Signal.next)) regs;
      reg_init = Array.map (fun r -> (Signal.reg_of r).Signal.init) regs;
      latch_ints = Array.make (Array.length regs) 0;
      latch_wides = Array.make (Array.length regs) placeholder;
      dirty = true;
      cycle = 0;
      watched = [];
    }
  in
  Array.iteri
    (fun i s -> match Signal.op s with Signal.Const v -> store t i v | _ -> ())
    topo;
  List.iter
    (fun p -> Hashtbl.replace t.inputs p.Circuit.port_name (index p.Circuit.signal))
    (Circuit.inputs circuit);
  reset t;
  t

let circuit t = t.circuit

let set_input t name v =
  match Hashtbl.find_opt t.inputs name with
  | None -> failwith ("Sim.set_input: unknown input " ^ name)
  | Some i ->
      if Bitvec.width v <> t.width.(i) then
        failwith
          (Printf.sprintf "Sim.set_input(%s): width mismatch (%d vs %d)" name
             (Bitvec.width v) t.width.(i));
      store t i v;
      t.dirty <- true

let set_input_int t name n =
  match Hashtbl.find_opt t.inputs name with
  | None -> failwith ("Sim.set_input_int: unknown input " ^ name)
  | Some i -> set_input t name (Bitvec.of_int ~width:t.width.(i) n)

(* A node whose width, or an argument's, exceeds [narrow]: today's
   [Bitvec] op over the argument values. *)
let eval_wide t i op args =
  let arg k = value t args.(k) in
  store t i
    (match op with
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
    | Signal.Concat -> Bitvec.concat_list (List.init (Array.length args) arg)
    | Signal.Slice (hi, lo) -> Bitvec.extract ~hi ~lo (arg 0)
    | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> assert false)

let eval t =
  if t.dirty then begin
    let v = t.ints and plan = t.plan in
    let b2i b = if b then 1 else 0 in
    for i = 0 to Array.length plan - 1 do
      match plan.(i) with
      | Hold -> ()
      | Not (a, m) -> v.(i) <- lnot v.(a) land m
      | And (a, b) -> v.(i) <- v.(a) land v.(b)
      | Or (a, b) -> v.(i) <- v.(a) lor v.(b)
      | Xor (a, b) -> v.(i) <- v.(a) lxor v.(b)
      (* Machine arithmetic wraps modulo 2^63, so the low bits kept by
         the mask are the modular result. *)
      | Add (a, b, m) -> v.(i) <- (v.(a) + v.(b)) land m
      | Sub (a, b, m) -> v.(i) <- (v.(a) - v.(b)) land m
      | Mul (a, b, m) -> v.(i) <- v.(a) * v.(b) land m
      | Eq (a, b) -> v.(i) <- b2i (v.(a) = v.(b))
      | Ult (a, b) -> v.(i) <- b2i (v.(a) < v.(b))
      | Slt (a, b, sh) -> v.(i) <- b2i ((v.(a) lsl sh) asr sh < (v.(b) lsl sh) asr sh)
      | Mux (s, a, b) -> v.(i) <- (if v.(s) <> 0 then v.(a) else v.(b))
      | Concat args ->
          let acc = ref 0 in
          for k = 0 to Array.length args - 1 do
            acc := (!acc lsl t.width.(args.(k))) lor v.(args.(k))
          done;
          v.(i) <- !acc
      | Slice (a, lo, m) -> v.(i) <- (v.(a) lsr lo) land m
      | Wide (op, args) -> eval_wide t i op args
    done;
    t.dirty <- false
  end

let peek t s =
  eval t;
  value t (Circuit.node_index t.circuit s)

let out t name = peek t (Circuit.find_output t.circuit name)

let out_int t name = Bitvec.to_int (out t name)

let reg_value t name =
  value t (Circuit.node_index t.circuit (Circuit.find_reg t.circuit name))

let step t =
  eval t;
  List.iter (fun (_, i, log) -> log := value t i :: !log) t.watched;
  (* Read every next value before latching: updates must be simultaneous. *)
  Array.iteri
    (fun k next ->
      t.latch_ints.(k) <- t.ints.(next);
      t.latch_wides.(k) <- t.wides.(next))
    t.reg_next;
  Array.iteri
    (fun k i ->
      t.ints.(i) <- t.latch_ints.(k);
      t.wides.(i) <- t.latch_wides.(k))
    t.reg_node;
  t.cycle <- t.cycle + 1;
  t.dirty <- true;
  if Obs.Metrics.enabled () then Obs.Metrics.add (Lazy.force m_sim_steps) 1

let cycle t = t.cycle

let run t inputs =
  Array.iter
    (fun assignments ->
      List.iter (fun (n, v) -> set_input t n v) assignments;
      step t)
    inputs

let watch t signals =
  t.watched <-
    t.watched @ List.map (fun s -> (s, Circuit.node_index t.circuit s, ref [])) signals

let waveform t =
  List.map (fun (s, _, log) -> (s, Array.of_list (List.rev !log))) t.watched

let pp_waveform fmt t =
  let wf = waveform t in
  let label s =
    match Signal.name s with
    | Some n -> n
    | None -> Format.asprintf "%a" Signal.pp s
  in
  let width = List.fold_left (fun m (s, _) -> max m (String.length (label s))) 0 wf in
  List.iter
    (fun (s, vs) ->
      Format.fprintf fmt "%-*s |" width (label s);
      Array.iter (fun v -> Format.fprintf fmt " %s" (Bitvec.to_hex_string v)) vs;
      Format.fprintf fmt "@.")
    wf
