module S = Sat.Solver
module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

type property = {
  assumes : Rtl.Signal.t list;
  asserts : (string * Rtl.Signal.t) list;
}

type cex = {
  cex_depth : int;
  cex_inputs : (string * Bitvec.t) list array;
  cex_failed : string list;
  cex_circuit : Rtl.Circuit.t;
}

type stats = {
  depth_reached : int;
  solve_time : float;
  vars : int;
  clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  opt : Opt.stats option;
}

type budget = {
  bud_wall_s : float option;
  bud_conflicts : int option;
  bud_learnts : int option;
}

let no_budget = { bud_wall_s = None; bud_conflicts = None; bud_learnts = None }

let budget ?wall_s ?conflicts ?learnts () =
  let pos what = function
    | Some v when v <= 0 -> invalid_arg ("Bmc.budget: " ^ what ^ " must be positive")
    | o -> o
  in
  (match wall_s with
  | Some s when s <= 0. -> invalid_arg "Bmc.budget: wall_s must be positive"
  | _ -> ());
  {
    bud_wall_s = wall_s;
    bud_conflicts = pos "conflicts" conflicts;
    bud_learnts = pos "learnts" learnts;
  }

type case = Base | Step

type unknown_reason =
  | Bound_exhausted
  | Budget_exhausted of {
      ub_budget : S.budget_kind;
      ub_depth : int;
      ub_case : case;
    }
  | Faulted of string

let case_to_string = function Base -> "base" | Step -> "step"

let unknown_reason_to_string = function
  | Bound_exhausted -> "bound"
  | Budget_exhausted { ub_budget; ub_depth; ub_case } ->
      Printf.sprintf "budget:%s@%d:%s"
        (S.budget_kind_to_string ub_budget)
        ub_depth (case_to_string ub_case)
  | Faulted site -> "fault:" ^ site

let pp_unknown_reason fmt r =
  Format.pp_print_string fmt (unknown_reason_to_string r)

type outcome =
  | Cex of cex * stats
  | Bounded_proof of stats
  | Unknown of unknown_reason * stats

exception Replay_mismatch of string
exception Cancelled of stats

(* Relative budget -> absolute solver budget: the deadline is pinned to
   the wall clock at engine entry, so retries get a fresh allowance. *)
let solver_budget b =
  match (b.bud_wall_s, b.bud_conflicts, b.bud_learnts) with
  | None, None, None -> S.no_budget
  | _ ->
      let clock = Unix.gettimeofday in
      {
        S.b_deadline = Option.map (fun s -> clock () +. s) b.bud_wall_s;
        b_conflicts = b.bud_conflicts;
        b_learnts = b.bud_learnts;
        b_clock = clock;
      }

(* Compose the fault probe into the stop hook: an armed [sat.stop] site
   raises {!Fault.Injected} from the polling points, which the engine
   downgrades to [Unknown (Faulted _)] — distinguishable from a real
   external cancellation, which raises {!Sat.Solver.Stopped}. *)
let fault_stop stop () =
  Fault.point "sat.stop";
  stop ()

let check_width_1 what s =
  if Signal.width s <> 1 then
    invalid_arg (Printf.sprintf "Bmc: %s signal must be 1 bit wide" what)

let replay_values cex signals =
  let sim = Sim.create cex.cex_circuit in
  Sim.watch sim signals;
  Sim.run sim cex.cex_inputs;
  Sim.waveform sim

(* Validate a candidate CEX on the simulator: all assumptions must hold
   on every replayed cycle and some named assertion must be false at
   [depth]. The circuit is compiled once; each call resets and reruns
   that one simulator. *)
let validator circuit =
  let sim = Sim.create circuit in
  fun property inputs depth ->
    Sim.reset sim;
    let failed = ref [] in
    Array.iteri
      (fun cycle assignments ->
        List.iter (fun (n, v) -> Sim.set_input sim n v) assignments;
        List.iter
          (fun a ->
            if Bitvec.is_zero (Sim.peek sim a) then
              raise
                (Replay_mismatch
                   (Printf.sprintf "assumption violated at cycle %d in replay" cycle)))
          property.assumes;
        if cycle = depth then
          failed :=
            List.filter_map
              (fun (name, a) ->
                if Bitvec.is_zero (Sim.peek sim a) then Some name else None)
              property.asserts;
        Sim.step sim)
      inputs;
    if !failed = [] then
      raise (Replay_mismatch "no assertion failed at CEX depth in replay");
    !failed

let validate circuit property inputs depth =
  validator circuit property inputs depth

let check_property what property =
  List.iter (check_width_1 "assume") property.assumes;
  List.iter (fun (_, s) -> check_width_1 "assert" s) property.asserts;
  if property.asserts = [] then invalid_arg (what ^ ": no assertions")

(* Property signals are usually fresh nodes over the circuit's graph;
   elaborate an extended circuit that carries them as outputs so that the
   blaster and the replay simulator both know them. Creates no new signal
   nodes, so it is safe to call from worker domains. Idempotent: ports
   from an earlier instrumentation (a {!preoptimize}d circuit) are
   dropped before the current property's are appended. *)
let is_prop_port name =
  String.length name >= 6 && String.sub name 0 6 = "__bmc_"

let instrument circuit property =
  Rtl.Circuit.create
    ~name:(Rtl.Circuit.name circuit ^ "_prop")
    ~outputs:
      (List.filter_map
         (fun p ->
           if is_prop_port p.Circuit.port_name then None
           else Some (p.Circuit.port_name, p.Circuit.signal))
         (Circuit.outputs circuit)
      @ List.mapi (fun i a -> (Printf.sprintf "__bmc_assume_%d" i, a)) property.assumes
      @ List.map (fun (n, a) -> ("__bmc_assert_" ^ n, a)) property.asserts)
    ()

(* Output names the optimizer must keep: the property signals. *)
let prop_output_names property =
  List.mapi (fun i _ -> Printf.sprintf "__bmc_assume_%d" i) property.assumes
  @ List.map (fun (n, _) -> "__bmc_assert_" ^ n) property.asserts

(* Optimize the instrumented circuit around the property cone. Returns
   the circuit to blast, the property re-rooted into it, and a widening
   function taking a CEX input trace of the slim circuit back to a full
   assignment of the original instrumented circuit's inputs
   (cone-dropped inputs are provably irrelevant, so zeros do) — the CEX
   is then validated against the unoptimized circuit, which catches any
   optimizer unsoundness as a {!Replay_mismatch}. Symmetric-universe
   pairs are re-rooted alongside the property; pairs whose cone the
   optimizer dropped, or that it merged into one node, disappear (the
   blaster re-verifies the survivors structurally anyway). *)
let map_sym o sym =
  List.filter_map
    (fun (a, b) ->
      match (o.Opt.opt_map a, o.Opt.opt_map b) with
      | a', b' when a' != b' -> Some (a', b')
      | _ -> None
      | exception Not_found -> None)
    sym

let optimize_instrumented ?sweep_solver ~opt ?(sym = []) full property =
  match opt with
  | Opt.O0 -> (full, property, (fun inputs -> inputs), None, sym)
  | _ ->
      let o =
        Opt.optimize ~level:opt ?sweep_solver
          ~keep_outputs:(prop_output_names property) full
      in
      let property' =
        {
          assumes = List.map o.Opt.opt_map property.assumes;
          asserts = List.map (fun (n, a) -> (n, o.Opt.opt_map a)) property.asserts;
        }
      in
      let widen inputs =
        Array.map
          (fun assignments ->
            List.map
              (fun p ->
                let name = p.Circuit.port_name in
                match List.assoc_opt name assignments with
                | Some v -> (name, v)
                | None -> (name, Bitvec.zero (Signal.width p.Circuit.signal)))
              (Circuit.inputs full))
          inputs
      in
      (o.Opt.opt_circuit, property', widen, Some o.Opt.opt_stats, map_sym o sym)

(* Instrument + optimize once, outside any engine: callers that run the
   same circuit/property through several engines (benchmarks comparing
   them, a portfolio) can pay the optimizer once and hand each engine
   the slim circuit with [~opt:O0]. *)
let preoptimize ?(opt = Opt.O2) ?(sym = []) circuit property =
  check_property "Bmc.preoptimize" property;
  let full = instrument circuit property in
  let circuit', property', _, stats, sym' =
    optimize_instrumented ~opt ~sym full property
  in
  (circuit', property', sym', stats)

(* {1 Telemetry}

   The solver stays dependency-free; this is where its sampling hook and
   final counters get wired into {!Obs}. Counters are global atomics, so
   worker domains running concurrent checks all fold into one total. *)

let m_sat_conflicts = lazy (Obs.Metrics.counter "sat.conflicts")
let m_sat_decisions = lazy (Obs.Metrics.counter "sat.decisions")
let m_sat_propagations = lazy (Obs.Metrics.counter "sat.propagations")
let m_sat_restarts = lazy (Obs.Metrics.counter "sat.restarts")
let m_sat_reduces = lazy (Obs.Metrics.counter "sat.reduces")
let m_sat_learned = lazy (Obs.Metrics.counter "sat.learned_clauses")
let m_depth_seconds = lazy (Obs.Metrics.series "bmc.depth_seconds")

(* Emit solver-progress counter tracks while tracing, feed the solver
   health watchdog, and publish progress/stall events on the bus. The
   hook runs on the domain executing the solve. A stalled query with
   [p_rebudget] set trips the solver budget: the query surfaces as
   [Out_of_budget Wall_clock] -> [Unknown (Budget_exhausted ...)], which
   the retry schedule already treats as transient — the "rebudget early"
   hint without [lib/sat] ever depending on [lib/obs]. *)
let attach_sampling label solver =
  if Obs.enabled () then begin
    let policy = Obs.Watchdog.policy () in
    let dog =
      Obs.Watchdog.create ~policy
        ~on_stall:(fun ~cps:_ ~lps:_ ->
          if policy.Obs.Watchdog.p_rebudget then
            S.trip_budget solver S.Wall_clock)
        ()
    in
    S.on_sample solver ~every:policy.Obs.Watchdog.p_every (fun st ->
        Obs.counter_event ("sat." ^ label)
          [
            ("conflicts", float_of_int st.S.s_conflicts);
            ("propagations", float_of_int st.S.s_propagations);
            ("learnts", float_of_int st.S.s_learnts);
          ];
        Obs.Watchdog.feed dog ~conflicts:st.S.s_conflicts
          ~learnts:st.S.s_learned_total ~now:(Unix.gettimeofday ());
        if Obs.Bus.enabled () then begin
          let cps = Obs.Watchdog.conflicts_per_s dog in
          if not (Float.is_nan cps) then
            Obs.Bus.publish
              (Obs.Bus.Solver_progress
                 {
                   conflicts = st.S.s_conflicts;
                   learnts = st.S.s_learnts;
                   conflicts_per_s = cps;
                 })
        end)
  end

(* Fold a solver's final counters into the metric registry; every
   solver is flushed exactly once, when its owner drops it or when the
   call that created it returns. *)
let flush_solver_metrics solvers =
  if Obs.Metrics.enabled () then
    List.iter
      (fun solver ->
        let st = S.stats solver in
        Obs.Metrics.add (Lazy.force m_sat_conflicts) st.S.s_conflicts;
        Obs.Metrics.add (Lazy.force m_sat_decisions) st.S.s_decisions;
        Obs.Metrics.add (Lazy.force m_sat_propagations) st.S.s_propagations;
        Obs.Metrics.add (Lazy.force m_sat_restarts) st.S.s_restarts;
        Obs.Metrics.add (Lazy.force m_sat_reduces) st.S.s_reduces;
        Obs.Metrics.add (Lazy.force m_sat_learned) st.S.s_learned_total)
      solvers

(* {1 The unroll session}

   Every verdict comes out of one depth loop ({!deepen}) over one or two
   unroll sessions. A session poses "some target assertion fails at
   cycle [k]" queries against the optimized circuit; its [policy]
   decides how solvers live:

   - [Persistent] (the default engine): ONE solver per session for the
     whole run. The optimizer's [-O2] sweep borrows the first session's
     solver (guarded, then retired and simplified away — see
     {!Opt.optimize}), the transition relation is blasted once as a
     [Template] and stamped out one frame per new cycle, and each query
     is selected by an activation literal: clauses [¬act ∨ …] are inert
     until [solve ~assumptions:[act]], and a query moving on retires
     [act] with a unit clause and keeps its targets as unit facts.
     Learnt clauses and variable activity survive across depths.
   - [Fresh] (the scratch oracle, [~incremental:false]): every query
     gets a fresh solver and a [Direct] re-blast of cycles [0..k], with
     the targets asserted as facts below [k], so nothing — learnt
     clauses, activity, watch lists — survives between queries. Its
     value is not speed (it is quadratic in depth) but independence: a
     different CNF shape and search trajectory that must still agree
     with [Persistent] on verdict and CEX depth.

   Facts are sound in both: a target kept at cycle [c] was just proven
   there (base side) or is the induction hypothesis of the next step
   query (step side, [free_init]). Budgets are pinned once per verdict:
   one wall deadline for every solver the verdict creates, and a
   conflict cap that is cumulative across the solvers a [Fresh] verdict
   retires, so [Out_of_budget] fires when the verdict as a whole exceeds
   its grant and the report stays clean up to depth [k-1]. *)

type policy = Persistent | Fresh

(* One call's engine: everything fixed for its duration, plus the
   solvers it created and has not dropped yet (flushed when it ends). *)
type env = {
  policy : policy;
  solver_config : S.config option;
  stop : unit -> bool;
  budget : budget;
  progress : int -> unit;
  full : Circuit.t;  (** instrumented, unoptimized: the replay target *)
  mutable solvers : S.t list;
}

(* One verdict's accounting. [watched] solvers are read against the
   snapshot taken when the verdict started counting them; solvers a
   [Fresh] verdict dropped are folded into [spent], whose sizes are the
   last dropped instance's. [depth] and [case] are what an abort
   reports. *)
type run = {
  env : env;
  sbud : S.budget;
  mutable depth : int;
  mutable case : case;
  mutable solve_time : float;
  mutable opt_stats : Opt.stats option;
  mutable watched : (S.t * S.stats) list;
  mutable spent : stats;
}

type session = {
  label : string;  (** solver-progress track name *)
  free_init : bool;  (** arbitrary start state: the k-induction step *)
  circuit : Circuit.t;  (** optimized *)
  sprop : property;  (** re-rooted into [circuit] *)
  widen : (string * Bitvec.t) list array -> (string * Bitvec.t) list array;
  mutable blaster : Cnf.Blast.t option;
  mutable act : S.lit option;  (** the last query's activation literal *)
}

(* Statistics of a run no solver worked on (a cache hit, or an abort
   before the first solver existed). *)
let no_work depth =
  {
    depth_reached = depth;
    solve_time = 0.;
    vars = 0;
    clauses = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    opt = None;
  }

(* Run [f] over a fresh [env], flushing its surviving solvers on any
   exit path. *)
let with_env ~incremental ?solver_config ~stop ~budget ~progress full f =
  let env =
    {
      policy = (if incremental then Persistent else Fresh);
      solver_config;
      stop = fault_stop stop;
      budget;
      progress;
      full;
      solvers = [];
    }
  in
  Fun.protect ~finally:(fun () -> flush_solver_metrics env.solvers) (fun () ->
      f env)

let start env =
  {
    env;
    sbud = solver_budget env.budget;
    depth = 0;
    case = Base;
    solve_time = 0.;
    opt_stats = None;
    watched = [];
    spent = no_work 0;
  }

(* What [solver] did since the snapshot [st0]; sizes are absolute. *)
let work solver st0 =
  let st = S.stats solver in
  {
    (no_work 0) with
    vars = st.S.s_vars;
    clauses = st.S.s_clauses;
    conflicts = st.S.s_conflicts - st0.S.s_conflicts;
    decisions = st.S.s_decisions - st0.S.s_decisions;
    propagations = st.S.s_propagations - st0.S.s_propagations;
    restarts = st.S.s_restarts - st0.S.s_restarts;
  }

(* Counters sum over every solver of the verdict; sizes are those of the
   instances still live (or of the last one dropped). *)
let stats run depth =
  let live = List.map (fun (s, st0) -> work s st0) run.watched in
  let sum f = List.fold_left (fun acc w -> acc + f w) (f run.spent) live in
  let size f =
    if live = [] then f run.spent
    else List.fold_left (fun acc w -> acc + f w) 0 live
  in
  {
    depth_reached = depth;
    solve_time = run.solve_time;
    vars = size (fun w -> w.vars);
    clauses = size (fun w -> w.clauses);
    conflicts = sum (fun w -> w.conflicts);
    decisions = sum (fun w -> w.decisions);
    propagations = sum (fun w -> w.propagations);
    restarts = sum (fun w -> w.restarts);
    opt = run.opt_stats;
  }

(* Grant [solver] the verdict's budget: the pinned deadline, and caps
   re-based on what the solver has already spent (a shared session
   solver) minus what dropped solvers spent (a [Fresh] verdict's
   cumulative cap). *)
let grant run solver =
  let st = S.stats solver in
  let b = run.env.budget in
  S.set_budget solver
    {
      run.sbud with
      S.b_conflicts =
        Option.map
          (fun cap -> st.S.s_conflicts + cap - run.spent.conflicts)
          b.bud_conflicts;
      b_learnts = Option.map (fun cap -> st.S.s_learnts + cap) b.bud_learnts;
    }

(* The only place solvers are created. *)
let new_solver run label =
  let solver = S.create ?config:run.env.solver_config ~stop:run.env.stop () in
  grant run solver;
  attach_sampling label solver;
  run.env.solvers <- solver :: run.env.solvers;
  run.watched <- (solver, S.stats solver) :: run.watched;
  solver

(* Retire a [Fresh] query's solver: flush it and fold it into [spent]. *)
let drop run solver =
  flush_solver_metrics [ solver ];
  run.env.solvers <- List.filter (( != ) solver) run.env.solvers;
  let w = work solver (List.assq solver run.watched) and p = run.spent in
  run.watched <- List.remove_assq solver run.watched;
  run.spent <-
    {
      w with
      conflicts = p.conflicts + w.conflicts;
      decisions = p.decisions + w.decisions;
      propagations = p.propagations + w.propagations;
      restarts = p.restarts + w.restarts;
    }

(* Instrumented circuit -> optimized front end. Persistently the first
   session's solver is created first, so the [-O2] sweep runs on it
   under this verdict's budget and stop hooks and the search heuristics
   arrive at depth 0 already warm; [Fresh] sweeps on a private solver. *)
let optimize run ~label ~opt ~sym property =
  let solver =
    match run.env.policy with
    | Persistent -> Some (new_solver run label)
    | Fresh -> None
  in
  let ((_, _, _, opt_stats, _) as front) =
    optimize_instrumented ?sweep_solver:solver ~opt ~sym run.env.full property
  in
  run.opt_stats <- opt_stats;
  (front, solver)

let session run ~label ?solver ~free_init (circuit, sprop, widen, _, sym) =
  let blaster =
    match run.env.policy with
    | Fresh -> None
    | Persistent ->
        let solver =
          match solver with Some s -> s | None -> new_solver run label
        in
        Some
          (Cnf.Blast.create ~free_init ~mode:Cnf.Blast.Template ~sym solver
             circuit)
  in
  { label; free_init; circuit; sprop; widen; blaster; act = None }

let blaster se = Option.get se.blaster

(* Unit clauses: each of [signals] holds at [cycle]. *)
let hold b ~cycle signals =
  List.iter
    (fun a -> S.add_clause (Cnf.Blast.solver b) [ Cnf.Blast.lit1 b ~cycle a ])
    signals

(* Pose "some of [targets] fails at cycle [depth]" and solve it. The
   session holds every cycle [0..depth] with the assumptions on each
   and the targets as facts below [depth]; the step side also holds
   the loop-free condition (cycles [i < j <= depth] in distinct
   states). *)
let query run se ~depth targets =
  let b =
    match run.env.policy with
    | Persistent ->
        let b = blaster se in
        while Cnf.Blast.cycles b <= depth do
          let cycle = Cnf.Blast.cycles b in
          Fault.point "bmc.alloc";
          Cnf.Blast.unroll_cycle b;
          hold b ~cycle se.sprop.assumes
        done;
        b
    | Fresh ->
        Fault.point "bmc.alloc";
        let solver = new_solver run se.label in
        let b = Cnf.Blast.create ~free_init:se.free_init solver se.circuit in
        se.blaster <- Some b;
        for cycle = 0 to depth do
          Cnf.Blast.unroll_cycle b;
          hold b ~cycle se.sprop.assumes;
          if cycle < depth then hold b ~cycle targets
        done;
        b
  in
  let solver = Cnf.Blast.solver b in
  let act = Cnf.Blast.fresh_var b in
  S.add_clause solver
    (S.neg act
    :: List.map (fun a -> S.neg (Cnf.Blast.lit1 b ~cycle:depth a)) targets);
  if se.free_init then begin
    (* A persistent step solver already carries every pair below [depth]. *)
    let first = match run.env.policy with Persistent -> depth | Fresh -> 1 in
    for i = 0 to depth - 1 do
      for j = max (i + 1) first to depth do
        S.add_clause solver [ Cnf.Blast.state_distinct b i j ]
      done
    done
  end;
  se.act <- Some act;
  run.case <- (if se.free_init then Step else Base);
  Obs.span "sat.solve"
    ~attrs:
      [
        ("case", Obs.Json.Str (case_to_string run.case));
        ("depth", Obs.Json.Int depth);
      ]
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let r = S.solve ~assumptions:[ act ] solver in
  run.solve_time <- run.solve_time +. (Unix.gettimeofday () -. t0);
  r

(* Move past the last query: [facts] hold at [depth] from now on.
   Persistently the query is retired and the facts become units;
   a [Fresh] session drops the instance instead. *)
let advance run se ~depth facts =
  let b = blaster se in
  let solver = Cnf.Blast.solver b in
  match run.env.policy with
  | Persistent ->
      Option.iter (fun act -> S.add_clause solver [ S.neg act ]) se.act;
      hold b ~cycle:depth facts
  | Fresh ->
      se.blaster <- None;
      drop run solver

(* The counterexample behind a Sat query, widened back to the
   unoptimized circuit's inputs and replayed there against [prop] (the
   original property roots). *)
let extract_cex run se ~prop depth =
  let b = blaster se in
  let inputs =
    Array.init (depth + 1) (fun cycle ->
        List.map
          (fun p ->
            ( p.Circuit.port_name,
              Cnf.Blast.input_value b ~cycle p.Circuit.port_name ))
          (Circuit.inputs se.circuit))
  in
  let inputs = se.widen inputs in
  let failed = validate run.env.full prop inputs depth in
  Obs.instant ~attrs:[ ("depth", Obs.Json.Int depth) ] "bmc.cex";
  Obs.log
    ~attrs:
      [
        ("depth", Obs.Json.Int depth);
        ("failed", Obs.Json.List (List.map (fun n -> Obs.Json.Str n) failed));
      ]
    Info "bmc.cex";
  {
    cex_depth = depth;
    cex_inputs = inputs;
    cex_failed = failed;
    cex_circuit = run.env.full;
  }

(* What one round of the depth loop concluded. *)
type 'v round =
  | Deeper  (** the depth is clean; go on *)
  | Holds of 'v  (** the depth is clean and the verdict is final *)
  | Fails of 'v  (** a counterexample at this depth *)

(* The depth loop: rounds 0..max_depth, each in a [bmc.depth] span that
   records its wall time and publishes its progress on the bus. *)
let deepen run ~max_depth ~exhausted round =
  let rec go depth =
    if depth > max_depth then exhausted (stats run max_depth)
    else begin
      run.depth <- depth;
      if run.env.stop () then raise S.Stopped;
      run.env.progress depth;
      let t_depth = Unix.gettimeofday () in
      let r =
        Obs.span "bmc.depth" ~attrs:[ ("depth", Obs.Json.Int depth) ]
        @@ fun () ->
        Obs.log ~attrs:[ ("depth", Obs.Json.Int depth) ] Debug "bmc.depth";
        (* Fault probe for the persistent policy: fires between depth
           [k-1]'s clean verdict and depth [k]'s clause addition, so the
           robustness fuzz can hit the solver-reuse window specifically. *)
        if depth > 0 && run.env.policy = Persistent then Fault.point "bmc.incr";
        round depth
      in
      let seconds = Unix.gettimeofday () -. t_depth in
      if Obs.Metrics.enabled () then
        Obs.Metrics.record (Lazy.force m_depth_seconds) seconds;
      match r with
      | Deeper ->
          Obs.Bus.publish (Obs.Bus.Depth_solved { depth; seconds });
          go (depth + 1)
      | Holds v ->
          Obs.Bus.publish (Obs.Bus.Depth_solved { depth; seconds });
          v
      | Fails v ->
          Obs.Bus.publish (Obs.Bus.Cex_found { depth });
          v
    end
  in
  go 0

(* Map the engine's aborts onto verdicts: an external stop raises
   {!Cancelled}; budget exhaustion and injected faults downgrade to
   [Unknown], clean up to the depth before the one being explored. *)
let attempt run f =
  try Ok (f ()) with
  | S.Stopped -> raise (Cancelled (stats run run.depth))
  | S.Out_of_budget kind ->
      Error
        ( Budget_exhausted
            { ub_budget = kind; ub_depth = run.depth; ub_case = run.case },
          stats run (run.depth - 1) )
  | Fault.Injected site ->
      Obs.Bus.publish (Obs.Bus.Fault_injected { site });
      Error (Faulted site, stats run (run.depth - 1))

let check_engine ~max_depth ~progress ?solver_config ~stop ~opt ~budget
    ~incremental ~sym circuit property =
  check_property "Bmc.check" property;
  with_env ~incremental ?solver_config ~stop ~budget ~progress
    (instrument circuit property)
  @@ fun env ->
  let run = start env in
  match
    attempt run (fun () ->
        let front, solver = optimize run ~label:"check" ~opt ~sym property in
        let se = session run ~label:"check" ?solver ~free_init:false front in
        let targets = List.map snd se.sprop.asserts in
        deepen run ~max_depth
          ~exhausted:(fun st -> Bounded_proof st)
          (fun depth ->
            match query run se ~depth targets with
            | S.Sat ->
                let cex = extract_cex run se ~prop:property depth in
                Fails (Cex (cex, stats run depth))
            | S.Unsat ->
                advance run se ~depth targets;
                Deeper))
  with
  | Ok o -> o
  | Error (reason, st) -> Unknown (reason, st)

(* {1 Verdict cache}

   The cache fronts the engines: the key is {!Cache.canon} over the
   property cone (structure only — isomorphic, alpha-renamed circuits
   share entries) combined with a fingerprint of everything else that
   could influence the verdict: engine, depth bound, opt level, engine
   variant, solver configuration and budget. Only conclusive verdicts
   are stored, and a cached counterexample is never trusted as-is: it is
   re-materialized onto the fresh circuit (by canonical input ordinal,
   so names are immaterial) and replayed on the simulator; a failed
   replay evicts the entry and falls through to a fresh run. A cache hit
   can therefore never flip a verdict a fresh run would have produced:
   Bounded/Proved entries assert exactly what the identical query
   proved, and Cex entries carry their own machine-checkable witness. *)

let cache_config ~engine ~max_depth ~opt ~incremental ~solver_config ~budget =
  let cfg =
    match solver_config with
    | None -> "default"
    | Some c ->
        Printf.sprintf "%s;%g;%d;%b;%g;%d" c.S.cfg_name c.S.var_decay
          c.S.restart_first c.S.default_polarity c.S.random_freq c.S.seed
  in
  let fl = function None -> "-" | Some f -> Printf.sprintf "%g" f in
  let it = function None -> "-" | Some i -> string_of_int i in
  Printf.sprintf "%s|d=%d|o=%d|i=%b|s=%s|b=%s,%s,%s" engine max_depth
    (Opt.level_to_int opt) incremental cfg (fl budget.bud_wall_s)
    (it budget.bud_conflicts) (it budget.bud_learnts)

(* The exact (structural digest, cache key, config fingerprint) triple
   {!check}/{!prove} would use for [property] — what `autocc why`
   recomputes to address the store, and what the run ledger records. *)
let cache_fingerprint ~engine ?(max_depth = 30) ?(opt = Opt.O0)
    ?(incremental = true) ?solver_config ?(budget = no_budget) property =
  let canon =
    Cache.canon ~assumes:property.assumes
      ~asserts:(List.map snd property.asserts)
  in
  let config =
    cache_config ~engine ~max_depth ~opt ~incremental ~solver_config ~budget
  in
  (canon.Cache.c_digest, Cache.key canon ~config, config)

(* Provenance stamped onto every store: this process's ledger run id
   plus the full fingerprint, so a later warm hit is auditable back to
   the run that carried the solve. *)
let prov_now ~engine ~config ~key =
  {
    Cache.p_run = Obs.Ledger.run_id ();
    p_engine = engine;
    p_config = config;
    p_key = key;
    p_ts = Unix.gettimeofday ();
  }

(* On a warm hit, surface who earned the verdict (when a log sink is
   attached): the audit trail costs nothing on the default path. *)
let log_provenance cache key =
  if Obs.logging Obs.Info then
    match Cache.peek cache key with
    | Some (_, Some p) ->
        Obs.log Obs.Info "cache.provenance"
          ~attrs:
            [
              ("key", Obs.Json.Str key);
              ("run", Obs.Json.Str p.Cache.p_run);
              ("engine", Obs.Json.Str p.Cache.p_engine);
              ("config", Obs.Json.Str p.Cache.p_config);
            ]
    | _ -> ()

let cache_entry_of_cex canon property cex =
  let ord_of_name = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      match Signal.op s with
      | Signal.Input n -> Hashtbl.replace ord_of_name n i
      | _ -> ())
    canon.Cache.c_inputs;
  let inputs =
    Array.map
      (fun assignments ->
        List.filter_map
          (fun (n, v) ->
            match Hashtbl.find_opt ord_of_name n with
            | Some i when not (Bitvec.is_zero v) -> Some (i, v)
            | _ -> None)
          assignments)
      cex.cex_inputs
  in
  let failed =
    List.filter_map
      (fun n ->
        let rec pos i = function
          | [] -> None
          | (n', _) :: _ when n' = n -> Some i
          | _ :: rest -> pos (i + 1) rest
        in
        pos 0 property.asserts)
      cex.cex_failed
  in
  { Cache.v_depth = cex.cex_depth; v_inputs = inputs; v_failed = failed }

(* Re-materialize a cached witness onto the current circuit: canonical
   input ordinal -> this circuit's input of the same structural
   position; inputs outside the hashed cone are not part of the entry
   and zeros do (they cannot influence the property). *)
let cex_inputs_of_entry canon full cc =
  let name_of_ord i =
    if i < 0 || i >= Array.length canon.Cache.c_inputs then None
    else
      match Signal.op canon.Cache.c_inputs.(i) with
      | Signal.Input n -> Some n
      | _ -> None
  in
  Array.map
    (fun cycle ->
      let assigned = Hashtbl.create 16 in
      List.iter
        (fun (ord, v) ->
          match name_of_ord ord with
          | Some n -> Hashtbl.replace assigned n v
          | None -> ())
        cycle;
      List.map
        (fun p ->
          let n = p.Circuit.port_name in
          match Hashtbl.find_opt assigned n with
          | Some v when Bitvec.width v = Signal.width p.Circuit.signal ->
              (n, v)
          | _ -> (n, Bitvec.zero (Signal.width p.Circuit.signal)))
        (Circuit.inputs full))
    cc.Cache.v_inputs

(* The soundness backstop: a cached counterexample is only surfaced if
   it replays as a genuine violation on the fresh circuit. Anything
   else — wrong depth, wrong shape, stale structure that slipped
   through a hash collision — evicts the entry and reports a miss. *)
let revalidate_cached_cex cache key canon full property max_depth cc =
  if
    cc.Cache.v_depth < 0
    || cc.Cache.v_depth > max_depth
    || Array.length cc.Cache.v_inputs <> cc.Cache.v_depth + 1
  then begin
    Cache.remove cache key;
    None
  end
  else
    let inputs = cex_inputs_of_entry canon full cc in
    match validate full property inputs cc.Cache.v_depth with
    | failed ->
        Obs.instant "cache.cex_replayed";
        Some
          {
            cex_depth = cc.Cache.v_depth;
            cex_inputs = inputs;
            cex_failed = failed;
            cex_circuit = full;
          }
    | exception Replay_mismatch _ ->
        Cache.remove cache key;
        None

let cached_check cache key canon full property max_depth =
  match Cache.find cache key with
  | None -> None
  | Some (Cache.Bounded d) when d = max_depth ->
      log_provenance cache key;
      Some (Bounded_proof (no_work d))
  | Some (Cache.Bounded _) | Some (Cache.Proved _) ->
      (* Malformed under this key (the depth bound and engine are part
         of it): evict and recompute. *)
      Cache.remove cache key;
      None
  | Some (Cache.Cex cc) ->
      Option.map
        (fun cex ->
          log_provenance cache key;
          Cex (cex, no_work cex.cex_depth))
        (revalidate_cached_cex cache key canon full property max_depth cc)

let store_check cache key canon property ~config = function
  | Bounded_proof st ->
      Cache.add cache key (Cache.Bounded st.depth_reached)
        ~prov:(prov_now ~engine:"check" ~config ~key)
  | Cex (cex, _) ->
      Cache.add cache key
        (Cache.Cex (cache_entry_of_cex canon property cex))
        ~prov:(prov_now ~engine:"check" ~config ~key)
  | Unknown _ -> ()

let check ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(stop = fun () -> false) ?(opt = Opt.O0) ?(budget = no_budget)
    ?(incremental = true) ?(sym = []) ?cache circuit property =
  let engine () =
    check_engine ~max_depth ~progress ?solver_config ~stop ~opt ~budget
      ~incremental ~sym circuit property
  in
  match cache with
  | None -> engine ()
  | Some c -> (
      check_property "Bmc.check" property;
      let canon =
        Cache.canon ~assumes:property.assumes
          ~asserts:(List.map snd property.asserts)
      in
      let config =
        cache_config ~engine:"check" ~max_depth ~opt ~incremental
          ~solver_config ~budget
      in
      let key = Cache.key canon ~config in
      let full = instrument circuit property in
      match cached_check c key canon full property max_depth with
      | Some o -> o
      | None ->
          let o = engine () in
          store_check c key canon property ~config o;
          o)

(* One bounded check per assertion, every assumption kept. Where [check]
   stops at the first (shallowest) failure of {e any} assertion, this
   sweep reports a witness per failing output — the raw CEX pool a
   campaign dedups into distinct channels.

   [Fresh]: one independent scratch [check] per assertion, each
   optimized down to its own cone — the differential oracle.

   [Persistent]: the whole sweep shares ONE session: the circuit is
   optimized once over the union of the assertion cones (one bigger
   instance, paid for once), the unrolling is shared, and each
   per-assertion Unsat verdict stays as a unit fact — sound to share
   because "assertion A holds at cycle c" is an unconditional theorem
   under the assumptions, independent of which assertion's search
   proved it. Each assertion is its own verdict: counters count from
   its start, and the budget is granted afresh (fresh deadline, caps
   re-based on the session's counters), so one diverging assertion
   degrades to Unknown without starving the rest. A budget abort or
   injected fault leaves the solver's search state undefined, so the
   poisoned session is dropped and the next assertion rebuilds it (the
   optimizer result is kept). *)
let check_each ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(stop = fun () -> false) ?(opt = Opt.O0) ?(budget = no_budget)
    ?(incremental = true) ?(sym = []) ?cache circuit property =
  if property.asserts = [] then []
  else if not incremental then
    List.map
      (fun (name, a) ->
        let sub = { assumes = property.assumes; asserts = [ (name, a) ] } in
        ( name,
          Obs.span "bmc.check_each" ~attrs:[ ("assert", Obs.Json.Str name) ]
            (fun () ->
              check ~max_depth ~progress ?solver_config ~stop ~opt ~budget
                ~incremental:false ?cache circuit sub) ))
      property.asserts
  else begin
    check_property "Bmc.check_each" property;
    let full = instrument circuit property in
    with_env ~incremental ?solver_config ~stop ~budget ~progress full
    @@ fun env ->
    let front = ref None and shared = ref None in
    let open_session run =
      let ((_, _, _, opt_stats, _) as f), solver =
        match !front with
        | Some f -> (f, None)
        | None -> optimize run ~label:"check_each" ~opt ~sym property
      in
      front := Some f;
      run.opt_stats <- opt_stats;
      match !shared with
      | Some se -> se
      | None ->
          let se = session run ~label:"check_each" ?solver ~free_init:false f in
          shared := Some se;
          se
    in
    let run_one idx (name, orig_a) =
      Obs.span "bmc.check_each" ~attrs:[ ("assert", Obs.Json.Str name) ]
      @@ fun () ->
      let run = start env in
      let sub = { assumes = property.assumes; asserts = [ (name, orig_a) ] } in
      match
        attempt run (fun () ->
            let se = open_session run in
            let solver = Cnf.Blast.solver (blaster se) in
            run.watched <- [ (solver, S.stats solver) ];
            grant run solver;
            let target = [ snd (List.nth se.sprop.asserts idx) ] in
            deepen run ~max_depth
              ~exhausted:(fun st -> Bounded_proof st)
              (fun depth ->
                match query run se ~depth target with
                | S.Sat ->
                    advance run se ~depth [];
                    let cex = extract_cex run se ~prop:sub depth in
                    Fails (Cex (cex, stats run depth))
                | S.Unsat ->
                    advance run se ~depth target;
                    Deeper))
      with
      | Ok o -> o
      | Error (reason, st) ->
          shared := None;
          Unknown (reason, st)
    in
    (* Per-assertion cache entries use the same key shape as a
       single-assertion [check] at the same configuration — the verdict
       for one assertion is a theorem about its own cone, independent of
       which engine variant established it. A hit skips the session
       entirely for that assertion. *)
    let run_cached idx (name, orig_a) =
      (* Per-assertion bus scope: events from this query (depths, CEX,
         solver progress) carry "parent/assertion" so the cockpit shows
         one row per assertion of a multi-assert sweep. *)
      Obs.Bus.with_label (Obs.Bus.sub_label name) @@ fun () ->
      let t_job = Unix.gettimeofday () in
      Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = max_depth });
      let o =
        match cache with
        | None -> run_one idx (name, orig_a)
        | Some c -> (
            let canon =
              Cache.canon ~assumes:property.assumes ~asserts:[ orig_a ]
            in
            let config =
              cache_config ~engine:"check" ~max_depth ~opt ~incremental:true
                ~solver_config ~budget
            in
            let key = Cache.key canon ~config in
            let sub =
              { assumes = property.assumes; asserts = [ (name, orig_a) ] }
            in
            match cached_check c key canon full sub max_depth with
            | Some o -> o
            | None ->
                let o = run_one idx (name, orig_a) in
                store_check c key canon sub ~config o;
                o)
      in
      if Obs.Bus.enabled () then begin
        (match o with
        | Unknown (reason, _) ->
            Obs.Bus.publish
              (Obs.Bus.Unknown { reason = unknown_reason_to_string reason })
        | Cex _ | Bounded_proof _ -> ());
        let verdict =
          match o with
          | Cex _ -> "cex"
          | Bounded_proof _ -> "proof"
          | Unknown _ -> "unknown"
        in
        Obs.Bus.publish
          (Obs.Bus.Job_done
             { verdict; wall_s = Unix.gettimeofday () -. t_job })
      end;
      o
    in
    List.mapi (fun i (name, a) -> (name, run_cached i (name, a))) property.asserts
  end

let pp_cex fmt cex =
  Format.fprintf fmt "CEX at depth %d, failing: %s@."
    cex.cex_depth
    (String.concat ", " cex.cex_failed);
  Array.iteri
    (fun cycle assignments ->
      Format.fprintf fmt "  cycle %2d:" cycle;
      List.iter
        (fun (n, v) ->
          if not (Bitvec.is_zero v) then
            Format.fprintf fmt " %s=%s" n (Bitvec.to_hex_string v))
        assignments;
      Format.fprintf fmt "@.")
    cex.cex_inputs

type induction_outcome =
  | Proved of int * stats
  | Refuted of cex * stats
  | Unknown of unknown_reason * stats

(* k-induction: a base session from reset and a [free_init] step
   session over the same optimized circuit, deepened together. Round k
   asks the base whether some assertion fails at cycle k; if not, it
   asks the step whether a loop-free path of k good states from an
   arbitrary start reaches a bad one at cycle k. The base facts are
   theorems, the step facts the induction hypothesis. *)
let prove_engine ~max_depth ~progress ?solver_config ~stop ~opt ~budget
    ~incremental ~sym circuit property =
  check_property "Bmc.prove" property;
  with_env ~incremental ?solver_config ~stop ~budget ~progress
    (instrument circuit property)
  @@ fun env ->
  let run = start env in
  match
    attempt run (fun () ->
        let front, solver = optimize run ~label:"base" ~opt ~sym property in
        let base = session run ~label:"base" ?solver ~free_init:false front in
        let step = session run ~label:"step" ~free_init:true front in
        let targets = List.map snd base.sprop.asserts in
        deepen run ~max_depth
          ~exhausted:(fun st -> Unknown (Bound_exhausted, st))
          (fun k ->
            match query run base ~depth:k targets with
            | S.Sat ->
                let cex = extract_cex run base ~prop:property k in
                Fails (Refuted (cex, stats run k))
            | S.Unsat -> (
                advance run base ~depth:k targets;
                match query run step ~depth:k targets with
                | S.Unsat ->
                    Obs.instant ~attrs:[ ("depth", Obs.Json.Int k) ] "bmc.proved";
                    Obs.log ~attrs:[ ("k", Obs.Json.Int k) ] Info "bmc.proved";
                    Holds (Proved (k, stats run k))
                | S.Sat ->
                    advance run step ~depth:k targets;
                    Deeper)))
  with
  | Ok o -> o
  | Error (reason, st) -> Unknown (reason, st)

let prove ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(stop = fun () -> false) ?(opt = Opt.O0) ?(budget = no_budget)
    ?(incremental = true) ?(sym = []) ?cache circuit property =
  let engine () =
    prove_engine ~max_depth ~progress ?solver_config ~stop ~opt ~budget
      ~incremental ~sym circuit property
  in
  match cache with
  | None -> engine ()
  | Some c -> (
      check_property "Bmc.prove" property;
      let canon =
        Cache.canon ~assumes:property.assumes
          ~asserts:(List.map snd property.asserts)
      in
      let config =
        cache_config ~engine:"prove" ~max_depth ~opt ~incremental
          ~solver_config ~budget
      in
      let key = Cache.key canon ~config in
      let full = instrument circuit property in
      let miss () =
        let o = engine () in
        let prov = prov_now ~engine:"prove" ~config ~key in
        (match o with
        | Proved (k, _) -> Cache.add ~prov c key (Cache.Proved k)
        | Refuted (cex, _) ->
            Cache.add ~prov c key
              (Cache.Cex (cache_entry_of_cex canon property cex))
        | Unknown _ -> ());
        o
      in
      match Cache.find c key with
      | Some (Cache.Proved k) when k >= 0 && k <= max_depth ->
          log_provenance c key;
          Proved (k, no_work k)
      | Some (Cache.Cex cc) -> (
          match
            revalidate_cached_cex c key canon full property max_depth cc
          with
          | Some cex ->
              log_provenance c key;
              Refuted (cex, no_work cex.cex_depth)
          | None -> miss ())
      | Some (Cache.Proved _) | Some (Cache.Bounded _) ->
          Cache.remove c key;
          miss ()
      | None -> miss ())

let miter c1 c2 =
  let module T = Rtl.Transform in
  let port_names c =
    List.sort compare (List.map (fun p -> p.Circuit.port_name) (Circuit.inputs c)),
    List.sort compare (List.map (fun p -> p.Circuit.port_name) (Circuit.outputs c))
  in
  if port_names c1 <> port_names c2 then
    invalid_arg "Bmc.equiv: circuits have different interfaces";
  (* Clone both circuits into one graph, sharing the primary inputs. *)
  let shared = Hashtbl.create 16 in
  let map_input ~name ~width =
    match Hashtbl.find_opt shared name with
    | Some s ->
        if Signal.width s <> width then
          invalid_arg ("Bmc.equiv: width mismatch on input " ^ name);
        s
    | None ->
        let s = Signal.input name width in
        Hashtbl.replace shared name s;
        s
  in
  let outs1, _ = T.clone_outputs ~map_input ~map_reg_name:(fun n -> "a." ^ n) c1 in
  let outs2, _ = T.clone_outputs ~map_input ~map_reg_name:(fun n -> "b." ^ n) c2 in
  let asserts =
    List.map
      (fun (n, s1) ->
        let s2 = List.assoc n outs2 in
        ("eq_" ^ n, Signal.( ==: ) s1 s2))
      outs1
  in
  let miter =
    Circuit.create ~name:(Circuit.name c1 ^ "_miter")
      ~outputs:(List.map (fun (n, s) -> ("a_" ^ n, s)) outs1)
      ()
  in
  (miter, { assumes = []; asserts })

let equiv ?max_depth ?opt ?incremental c1 c2 =
  let m, p = miter c1 c2 in
  check ?max_depth ?opt ?incremental m p
