(** Cycle-accurate compiled simulator for elaborated circuits.

    The usage protocol per cycle is: drive inputs with {!set_input}, read
    combinational results with {!peek} / {!out} (which evaluate lazily),
    then {!step} to latch registers and advance time.

    {!create} compiles the circuit once into a per-node plan over
    [Circuit.topo] indices; evaluation is a loop over that plan. Nodes of
    at most 62 bits compute on unboxed [int]s masked to their width; a
    node wider than that, or with a wider argument, evaluates with the
    {!Bitvec} op. [Bitvec.t] values are built only where this API returns
    them. One instance can replay any number of traces: {!reset} between
    them.

    The simulator depends on no part of the SAT or CNF stack, which is
    what lets it serve as the independent oracle that every
    counterexample is replayed on. *)

type t

val create : Rtl.Circuit.t -> t
(** Compile [circuit] into a fresh simulator, in reset state: registers
    at their initial values, all inputs zero, cycle 0. *)

val circuit : t -> Rtl.Circuit.t

val reset : t -> unit
(** Return to exactly the state {!create} leaves: registers at their
    initial values, all inputs zero, cycle 0. Watched signals stay
    watched, with their recorded values cleared. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Raises [Failure] on unknown input or width mismatch. *)

val set_input_int : t -> string -> int -> unit

val peek : t -> Rtl.Signal.t -> Bitvec.t
(** Combinational value of any node of the circuit in the current cycle,
    given the currently driven inputs. *)

val out : t -> string -> Bitvec.t
(** Value of an output port. *)

val out_int : t -> string -> int

val reg_value : t -> string -> Bitvec.t
(** Current (pre-step) value of a register looked up by name. *)

val step : t -> unit
(** Latch all registers with their next-state values and advance one
    cycle. *)

val cycle : t -> int
(** Number of [step]s since the last reset. *)

val run : t -> (string * Bitvec.t) list array -> unit
(** [run t inputs] drives a recorded input trace: for each cycle, apply
    the per-cycle assignments with {!set_input}, then {!step}. This is
    the shape of a BMC counterexample's input trace; watched signals
    record one sample per cycle as usual. *)

val watch : t -> Rtl.Signal.t list -> unit
(** Record the values of the given signals at every subsequent {!step};
    used for waveform output. *)

val waveform : t -> (Rtl.Signal.t * Bitvec.t array) list
(** Recorded values, one array entry per stepped cycle. *)

val pp_waveform : Format.formatter -> t -> unit
(** Render the recorded waveform as an ASCII table, one signal per row. *)
