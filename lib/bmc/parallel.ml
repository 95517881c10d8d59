(* Parallel BMC/induction over OCaml 5 domains.

   Two strategies over the same small scheduler:

   - sharding: one job per assertion (group); each job runs the ordinary
     sequential engine on a slim copy of the circuit whose outputs are
     just its own assertions, so the blaster only encodes the cone of
     those assertions plus the assumptions. The shallowest CEX wins and
     cancels every job that cannot beat it.
   - portfolio: k differently-configured solvers race on the whole
     property; first answer wins and cancels the rest.

   Scheduler shape: jobs are closures in an array; worker domains pull
   the next unstarted index off an atomic cursor (work stealing with a
   single cursor — an idle worker always takes the next job, so
   imbalance costs at most one job's latency). Progress ticks and
   completions travel to the coordinating domain through one
   mutex-protected queue; user callbacks only ever run on the calling
   domain (see the reentrancy contract on Bmc.check's [progress]).

   Domain-safety notes: the signal uid counter is atomic, so workers may
   build fresh nodes (the Opt passes each shard runs do); the shared
   original graph is only ever read. Every pre-existing circuit a worker
   touches is built here in the calling domain before any spawn, or by
   Circuit.create / Bmc.instrument, which only walk existing nodes.
   Solvers, blasters and simulators are created per job and never
   shared. *)

module S = Sat.Solver
module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

let default_jobs () = Domain.recommended_domain_count ()

type job_verdict =
  | Job_cex of Bmc.cex
  | Job_bounded
  | Job_proved of int
  | Job_unknown of Bmc.unknown_reason
  | Job_cancelled
  | Job_failed of exn

type job_result = {
  job_label : string;
  job_verdict : job_verdict;
  job_stats : Bmc.stats;
  job_retries : int;
  job_wall : float;
  job_cpu : float;
      (* CPU seconds consumed by the domain that ran the job; filled in
         by the scheduler, so the per-job [finish] helpers leave it 0. *)
}

type detail = {
  par_strategy : string;
  par_workers : int;
  par_wall : float;
  par_results : job_result list;
}

let zero_stats =
  {
    Bmc.depth_reached = 0;
    solve_time = 0.;
    vars = 0;
    clauses = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    opt = None;
  }

(* {1 The domain pool} *)

(* Run one job with telemetry: a [par.job] span on the executing domain,
   start/done events through the mutex-guarded {!Obs} log sink (worker
   domains must never write user-visible output directly — see the
   reentrancy contract on [Bmc.check]'s [progress]), and the executing
   domain's CPU time measured around the job. *)
let run_job ~scope ~index task ~tick =
  (* [scope] is the coordinator's bus label, captured at [run_tasks]
     entry: the domain-local label scope does not cross [Domain.spawn],
     so each job re-establishes it (suffixed per job) on the domain that
     actually runs it. *)
  let job_scope =
    if scope = "" then Printf.sprintf "j%d" index
    else Printf.sprintf "%s/j%d" scope index
  in
  Obs.Bus.with_label job_scope @@ fun () ->
  Obs.span "par.job" ~attrs:[ ("index", Obs.Json.Int index) ] @@ fun () ->
  Obs.log ~attrs:[ ("index", Obs.Json.Int index) ] Debug "par.job_start";
  Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = -1 });
  let c0 = Obs.Clock.thread_cpu_s () in
  let r = task ~tick in
  let r = { r with job_cpu = Obs.Clock.thread_cpu_s () -. c0 } in
  let verdict =
    match r.job_verdict with
    | Job_cex c -> Printf.sprintf "cex@%d" c.Bmc.cex_depth
    | Job_bounded -> "bounded"
    | Job_proved k -> Printf.sprintf "proved@%d" k
    | Job_unknown r -> "unknown:" ^ Bmc.unknown_reason_to_string r
    | Job_cancelled -> "cancelled"
    | Job_failed _ -> "failed"
  in
  Obs.Bus.publish (Obs.Bus.Job_done { verdict; wall_s = r.job_wall });
  Obs.log
    ~attrs:
      [
        ("index", Obs.Json.Int index);
        ("label", Obs.Json.Str r.job_label);
        ("verdict", Obs.Json.Str verdict);
        ("wall_s", Obs.Json.Float r.job_wall);
        ("cpu_s", Obs.Json.Float r.job_cpu);
      ]
    Debug "par.job_done";
  r

let run_tasks ~workers ~progress (tasks : (tick:(int -> unit) -> job_result) array)
    =
  let n = Array.length tasks in
  let scope = Obs.Bus.current_label () in
  let reported = ref (-1) in
  let report d =
    if d > !reported then begin
      reported := d;
      progress d
    end
  in
  let workers = max 1 (min workers n) in
  if workers = 1 then
    (* Single-domain fallback (-j 1): same jobs, same merge path, ticks
       delivered directly — no domains are spawned at all. *)
    Array.mapi (fun i task -> run_job ~scope ~index:i task ~tick:report) tasks
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let m = Mutex.create () in
    let cond = Condition.create () in
    let ticks = Queue.create () in
    let completed = ref 0 in
    let post f =
      Mutex.lock m;
      f ();
      Condition.signal cond;
      Mutex.unlock m
    in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let r =
            run_job ~scope ~index:i tasks.(i)
              ~tick:(fun d -> post (fun () -> Queue.push d ticks))
          in
          post (fun () ->
              results.(i) <- Some r;
              incr completed);
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    (* Coordinator: drain ticks (running the user callback here, in the
       calling domain) until every job has reported a result. *)
    let rec drain () =
      Mutex.lock m;
      while Queue.is_empty ticks && !completed < n do
        Condition.wait cond m
      done;
      let pending = List.of_seq (Queue.to_seq ticks) in
      Queue.clear ticks;
      let finished = !completed = n in
      Mutex.unlock m;
      List.iter report (List.sort compare pending);
      if not finished then drain ()
    in
    drain ();
    Array.iter Domain.join domains;
    Array.map Option.get results
  end

(* {1 Shared helpers} *)

let rec atomic_min a v =
  let c = Atomic.get a in
  if v < c && not (Atomic.compare_and_set a c v) then atomic_min a v

let rec atomic_min_float a v =
  let c = Atomic.get a in
  if v < c && not (Atomic.compare_and_set a c v) then atomic_min_float a v

(* {1 Cancellation telemetry}

   [t_req] holds the wall time of the earliest cancellation request
   (infinity until one happens). The latency histogram measures how long
   a running solve takes to observe the request and unwind — the figure
   that bounds how much work a won race keeps burning. *)

let m_cancel_latency =
  lazy
    (Obs.Metrics.histogram "par.cancel_latency_s"
       ~buckets:[| 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |])

let m_utilization = lazy (Obs.Metrics.gauge "par.utilization")

let note_cancel_request t_req =
  atomic_min_float t_req (Unix.gettimeofday ());
  Obs.instant "par.cancel_request"

let observe_cancelled t_req =
  (if Obs.Metrics.enabled () then
     let t = Atomic.get t_req in
     if t < infinity then
       Obs.Metrics.observe
         (Lazy.force m_cancel_latency)
         (Unix.gettimeofday () -. t));
  Obs.instant "par.cancelled"

let make_detail ~strategy ~workers ~t0 results =
  let wall = Unix.gettimeofday () -. t0 in
  let busy = Array.fold_left (fun a r -> a +. r.job_wall) 0. results in
  let util = if wall > 0. then busy /. (float_of_int workers *. wall) else 1. in
  if Obs.Metrics.enabled () then
    Obs.Metrics.set (Lazy.force m_utilization) util;
  Obs.log
    ~attrs:
      [
        ("strategy", Obs.Json.Str strategy);
        ("jobs", Obs.Json.Int (Array.length results));
        ("workers", Obs.Json.Int workers);
        ("wall_s", Obs.Json.Float wall);
        ("utilization", Obs.Json.Float util);
      ]
    Info "par.done";
  {
    par_strategy = strategy;
    par_workers = workers;
    par_wall = wall;
    par_results = Array.to_list results;
  }

let validate_property what (p : Bmc.property) =
  List.iter
    (fun s ->
      if Signal.width s <> 1 then
        invalid_arg (what ^ ": assume signal must be 1 bit wide"))
    p.Bmc.assumes;
  List.iter
    (fun (_, s) ->
      if Signal.width s <> 1 then
        invalid_arg (what ^ ": assert signal must be 1 bit wide"))
    p.Bmc.asserts;
  if p.Bmc.asserts = [] then invalid_arg (what ^ ": no assertions")

let rec chunk size l =
  match l with
  | [] -> []
  | _ ->
      let rec take k = function
        | x :: rest when k > 0 ->
            let h, t = take (k - 1) rest in
            (x :: h, t)
        | rest -> ([], rest)
      in
      let h, t = take size l in
      h :: chunk size t

let label_of_group g = String.concat "," (List.map fst g)

let merge_opt a b =
  match (a, b) with
  | None, o | o, None -> o
  | Some x, Some y -> Some (Opt.add_stats x y)

let merge_stats ~depth results =
  Array.fold_left
    (fun acc r ->
      {
        Bmc.depth_reached = depth;
        solve_time = acc.Bmc.solve_time +. r.job_stats.Bmc.solve_time;
        vars = acc.Bmc.vars + r.job_stats.Bmc.vars;
        clauses = acc.Bmc.clauses + r.job_stats.Bmc.clauses;
        conflicts = acc.Bmc.conflicts + r.job_stats.Bmc.conflicts;
        decisions = acc.Bmc.decisions + r.job_stats.Bmc.decisions;
        propagations = acc.Bmc.propagations + r.job_stats.Bmc.propagations;
        restarts = acc.Bmc.restarts + r.job_stats.Bmc.restarts;
        opt = merge_opt acc.Bmc.opt r.job_stats.Bmc.opt;
      })
    { zero_stats with Bmc.depth_reached = depth }
    results

(* A job that raised poisons the whole run: re-raise the first failure
   (in job order, for determinism) in the calling domain. By the time we
   get here every worker has been joined, so nothing deadlocks. *)
let reraise_failures results =
  Array.iter
    (fun r -> match r.job_verdict with Job_failed e -> raise e | _ -> ())
    results

(* Rebuild the winning shard's counterexample over the full property:
   extend the input trace to every input of the fully-instrumented
   circuit (inputs outside the shard's cone cannot influence the
   assumptions or the winning assertion, so zeros are as good as any
   value) and re-validate on the simulator to recover the complete
   failing-assertion set for this trace. *)
let widen_cex circuit property (win : Bmc.cex) =
  let full = Bmc.instrument circuit property in
  let inputs =
    Array.map
      (fun assignments ->
        List.map
          (fun p ->
            let name = p.Circuit.port_name in
            match List.assoc_opt name assignments with
            | Some v -> (name, v)
            | None -> (name, Bitvec.zero (Signal.width p.Circuit.signal)))
          (Circuit.inputs full))
      win.Bmc.cex_inputs
  in
  let failed = Bmc.validate full property inputs win.Bmc.cex_depth in
  {
    Bmc.cex_depth = win.Bmc.cex_depth;
    cex_inputs = inputs;
    cex_failed = failed;
    cex_circuit = full;
  }

let shallowest results =
  let best = ref None in
  Array.iter
    (fun r ->
      match (r.job_verdict, !best) with
      | Job_cex c, None -> best := Some c
      | Job_cex c, Some b when c.Bmc.cex_depth < b.Bmc.cex_depth -> best := Some c
      | _ -> ())
    results;
  !best

(* {1 Retry}

   The effectful half of {!Retry}: run attempts on the worker domain
   until either the verdict is conclusive or the policy stops
   escalating. Only transient Unknowns (budget exhaustion, injected
   faults) are retried — each retry sleeps the capped exponential
   backoff, then re-runs with the scaled budget and, when the policy
   carries alternates, a different solver configuration. [retries]
   counts the extra attempts for per-job accounting. *)
let unknown_of_outcome : Bmc.outcome -> Bmc.unknown_reason option = function
  | Bmc.Unknown (r, _) -> Some r
  | _ -> None

let unknown_of_induction : Bmc.induction_outcome -> Bmc.unknown_reason option =
  function
  | Bmc.Unknown (r, _) -> Some r
  | _ -> None

let with_retries ~retry ~stop ~retries ~reason_of run =
  let rec loop attempt =
    let r = run ~attempt in
    match reason_of r with
    | Some reason
      when (not (stop ())) && Retry.should_retry retry ~attempt reason ->
        incr retries;
        let reason_s = Bmc.unknown_reason_to_string reason in
        Obs.Bus.publish
          (Obs.Bus.Retry { attempt = attempt + 1; reason = reason_s });
        Obs.log
          ~attrs:
            [
              ("attempt", Obs.Json.Int (attempt + 1));
              ("reason", Obs.Json.Str reason_s);
            ]
          Debug "par.retry";
        let d = Retry.backoff_s retry ~attempt:(attempt + 1) in
        if d > 0. then Unix.sleepf d;
        loop (attempt + 1)
    | _ -> r
  in
  loop 0

(* Merged "clean up to" depth when no job found a CEX but some came back
   Unknown: the weakest job bounds the claim. *)
let clean_depth ~max_depth results =
  Array.fold_left
    (fun acc r ->
      match r.job_verdict with
      | Job_unknown _ | Job_cancelled -> min acc r.job_stats.Bmc.depth_reached
      | _ -> acc)
    max_depth results

(* First Unknown reason in job order, for deterministic merged reports. *)
let first_unknown results =
  Array.fold_left
    (fun acc r ->
      match (acc, r.job_verdict) with
      | None, Job_unknown reason -> Some reason
      | acc, _ -> acc)
    None results

(* {1 Assertion sharding} *)

let check_sharded ~workers ~group_size ~max_depth ~progress ~opt ~budget ~retry
    ~incremental ~sym ~cache circuit property =
  let groups = chunk (max 1 group_size) property.Bmc.asserts in
  (* Slim per-shard circuits, built in the calling domain: outputs are
     only this group's assertions, so each shard blasts only their cone
     (plus the assumption cones added back by Bmc.check's
     instrumentation). *)
  let slim =
    List.map (fun g -> Circuit.create ~name:(Circuit.name circuit) ~outputs:g ()) groups
  in
  let best = Atomic.make max_int in
  let halt = Atomic.make false in
  let t_req = Atomic.make infinity in
  let task g c ~tick =
    let cur = ref 0 in
    let retries = ref 0 in
    let stop () = Atomic.get halt || Atomic.get best <= !cur in
    let t0 = Unix.gettimeofday () in
    let finish verdict stats =
      {
        job_label = label_of_group g;
        job_verdict = verdict;
        job_stats = stats;
        job_retries = !retries;
        job_wall = Unix.gettimeofday () -. t0;
        job_cpu = 0.;
      }
    in
    try
      match
        with_retries ~retry ~stop ~retries
          ~reason_of:unknown_of_outcome
          (fun ~attempt ->
            Bmc.check ~max_depth
              ~progress:(fun d ->
                cur := d;
                tick d)
              ?solver_config:(Retry.config_for retry ~attempt)
              ~stop ~opt
              ~budget:(Retry.budget_for retry budget ~attempt)
              ~incremental ~sym ?cache c
              { Bmc.assumes = property.Bmc.assumes; asserts = g })
      with
      | Bmc.Cex (cex, st) ->
          atomic_min best cex.Bmc.cex_depth;
          note_cancel_request t_req;
          finish (Job_cex cex) st
      | Bmc.Bounded_proof st -> finish Job_bounded st
      | Bmc.Unknown (reason, st) -> finish (Job_unknown reason) st
    with
    | Bmc.Cancelled st ->
        observe_cancelled t_req;
        finish Job_cancelled st
    | e ->
        Atomic.set halt true;
        note_cancel_request t_req;
        finish (Job_failed e) zero_stats
  in
  let tasks = Array.of_list (List.map2 (fun g c ~tick -> task g c ~tick) groups slim) in
  let t0_run = Unix.gettimeofday () in
  let results = run_tasks ~workers ~progress tasks in
  reraise_failures results;
  let detail =
    make_detail ~strategy:"shard"
      ~workers:(max 1 (min workers (Array.length tasks)))
      ~t0:t0_run results
  in
  match shallowest results with
  | Some win ->
      let cex = widen_cex circuit property win in
      (Bmc.Cex (cex, merge_stats ~depth:win.Bmc.cex_depth results), detail)
  | None -> (
      (* No CEX anywhere. An Unknown shard weakens the merged claim from
         a bounded proof to Unknown-with-clean-prefix: the bound only
         holds up to the weakest shard's fully-checked depth. *)
      match first_unknown results with
      | Some reason ->
          ( Bmc.Unknown
              (reason, merge_stats ~depth:(clean_depth ~max_depth results) results),
            detail )
      | None -> (Bmc.Bounded_proof (merge_stats ~depth:max_depth results), detail))

(* {1 Portfolio} *)

let check_portfolio ~workers ~k ~max_depth ~progress ~opt ~budget ~retry
    ~incremental ~sym ~cache circuit property =
  let configs = S.portfolio k in
  let finished = Atomic.make false in
  let t_req = Atomic.make infinity in
  let task cfg ~tick =
    let retries = ref 0 in
    let stop () = Atomic.get finished in
    let t0 = Unix.gettimeofday () in
    let finish verdict stats =
      {
        job_label = cfg.S.cfg_name;
        job_verdict = verdict;
        job_stats = stats;
        job_retries = !retries;
        job_wall = Unix.gettimeofday () -. t0;
        job_cpu = 0.;
      }
    in
    try
      match
        with_retries ~retry ~stop ~retries
          ~reason_of:unknown_of_outcome
          (fun ~attempt ->
            let cfg =
              match Retry.config_for retry ~attempt with
              | Some c -> c
              | None -> cfg
            in
            Bmc.check ~max_depth ~progress:tick ~solver_config:cfg ~stop ~opt
              ~budget:(Retry.budget_for retry budget ~attempt)
              ~incremental ~sym ?cache circuit property)
      with
      | Bmc.Cex (cex, st) ->
          Atomic.set finished true;
          note_cancel_request t_req;
          finish (Job_cex cex) st
      | Bmc.Bounded_proof st ->
          Atomic.set finished true;
          note_cancel_request t_req;
          finish Job_bounded st
      | Bmc.Unknown (reason, st) ->
          (* An exhausted racer does NOT end the race: the other
             configurations may still answer within their budgets. *)
          finish (Job_unknown reason) st
    with
    | Bmc.Cancelled st ->
        observe_cancelled t_req;
        finish Job_cancelled st
    | e ->
        Atomic.set finished true;
        note_cancel_request t_req;
        finish (Job_failed e) zero_stats
  in
  let tasks = Array.of_list (List.map (fun cfg ~tick -> task cfg ~tick) configs) in
  let t0_run = Unix.gettimeofday () in
  let results = run_tasks ~workers ~progress tasks in
  reraise_failures results;
  let detail =
    make_detail ~strategy:"portfolio"
      ~workers:(max 1 (min workers (Array.length tasks)))
      ~t0:t0_run results
  in
  (* Every configuration answers the same deepening queries, so whichever
     finished first has THE shallowest depth; the first completer in job
     order keeps reports deterministic modulo the race. *)
  match shallowest results with
  | Some win -> (Bmc.Cex (win, merge_stats ~depth:win.Bmc.cex_depth results), detail)
  | None -> (
      match
        Array.find_opt
          (fun r -> match r.job_verdict with Job_bounded -> true | _ -> false)
          results
      with
      | Some _ -> (Bmc.Bounded_proof (merge_stats ~depth:max_depth results), detail)
      | None -> (
          match first_unknown results with
          | Some reason ->
              ( Bmc.Unknown
                  ( reason,
                    merge_stats ~depth:(clean_depth ~max_depth results) results ),
                detail )
          | None ->
              (Bmc.Bounded_proof (merge_stats ~depth:max_depth results), detail)))

(* {1 Entry points} *)

let check_detailed ?jobs ?portfolio ?(group_size = 1) ?(max_depth = 30)
    ?(progress = fun _ -> ()) ?(opt = Opt.O0) ?(budget = Bmc.no_budget)
    ?(retry = Retry.default) ?(incremental = true) ?(sym = []) ?cache circuit
    property =
  validate_property "Parallel.check" property;
  let workers = match jobs with Some j -> max 1 j | None -> default_jobs () in
  match portfolio with
  | Some k when k > 1 ->
      check_portfolio ~workers ~k ~max_depth ~progress ~opt ~budget ~retry
        ~incremental ~sym ~cache circuit property
  | _ ->
      check_sharded ~workers ~group_size ~max_depth ~progress ~opt ~budget
        ~retry ~incremental ~sym ~cache circuit property

let check ?jobs ?portfolio ?group_size ?max_depth ?progress ?opt ?budget ?retry
    ?incremental ?sym ?cache circuit property =
  fst
    (check_detailed ?jobs ?portfolio ?group_size ?max_depth ?progress ?opt
       ?budget ?retry ?incremental ?sym ?cache circuit property)

let prove_detailed ?jobs ?(group_size = 1) ?(max_depth = 30)
    ?(progress = fun _ -> ()) ?(opt = Opt.O0) ?(budget = Bmc.no_budget)
    ?(retry = Retry.default) ?(incremental = true) ?(sym = []) ?cache circuit
    property =
  validate_property "Parallel.prove" property;
  let workers = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let groups = chunk (max 1 group_size) property.Bmc.asserts in
  let slim =
    List.map (fun g -> Circuit.create ~name:(Circuit.name circuit) ~outputs:g ()) groups
  in
  let best = Atomic.make max_int in
  let halt = Atomic.make false in
  let t_req = Atomic.make infinity in
  let task g c ~tick =
    let cur = ref 0 in
    let retries = ref 0 in
    (* Only refutations cancel the others: a shard that proves its own
       assertions says nothing about the remaining shards. *)
    let stop () = Atomic.get halt || Atomic.get best <= !cur in
    let t0 = Unix.gettimeofday () in
    let finish verdict stats =
      {
        job_label = label_of_group g;
        job_verdict = verdict;
        job_stats = stats;
        job_retries = !retries;
        job_wall = Unix.gettimeofday () -. t0;
        job_cpu = 0.;
      }
    in
    try
      match
        with_retries ~retry ~stop ~retries
          ~reason_of:unknown_of_induction
          (fun ~attempt ->
            Bmc.prove ~max_depth
              ~progress:(fun d ->
                cur := d;
                tick d)
              ?solver_config:(Retry.config_for retry ~attempt)
              ~stop ~opt
              ~budget:(Retry.budget_for retry budget ~attempt)
              ~incremental ~sym ?cache c
              { Bmc.assumes = property.Bmc.assumes; asserts = g })
      with
      | Bmc.Proved (k, st) -> finish (Job_proved k) st
      | Bmc.Refuted (cex, st) ->
          atomic_min best cex.Bmc.cex_depth;
          note_cancel_request t_req;
          finish (Job_cex cex) st
      | Bmc.Unknown (reason, st) -> finish (Job_unknown reason) st
    with
    | Bmc.Cancelled st ->
        observe_cancelled t_req;
        finish Job_cancelled st
    | e ->
        Atomic.set halt true;
        note_cancel_request t_req;
        finish (Job_failed e) zero_stats
  in
  let tasks = Array.of_list (List.map2 (fun g c ~tick -> task g c ~tick) groups slim) in
  let t0_run = Unix.gettimeofday () in
  let results = run_tasks ~workers ~progress tasks in
  reraise_failures results;
  let detail =
    make_detail ~strategy:"shard"
      ~workers:(max 1 (min workers (Array.length tasks)))
      ~t0:t0_run results
  in
  match shallowest results with
  | Some win ->
      let cex = widen_cex circuit property win in
      (Bmc.Refuted (cex, merge_stats ~depth:win.Bmc.cex_depth results), detail)
  | None ->
      let unknown =
        Array.exists
          (fun r ->
            match r.job_verdict with
            | Job_unknown _ | Job_cancelled -> true
            | _ -> false)
          results
      in
      if unknown then
        let reason =
          match first_unknown results with
          | Some r -> r
          | None -> Bmc.Bound_exhausted
        in
        (Bmc.Unknown (reason, merge_stats ~depth:max_depth results), detail)
      else
        let k =
          Array.fold_left
            (fun acc r ->
              match r.job_verdict with Job_proved k -> max acc k | _ -> acc)
            0 results
        in
        (Bmc.Proved (k, merge_stats ~depth:k results), detail)

let prove ?jobs ?group_size ?max_depth ?progress ?opt ?budget ?retry
    ?incremental ?sym ?cache circuit property =
  fst
    (prove_detailed ?jobs ?group_size ?max_depth ?progress ?opt ?budget ?retry
       ?incremental ?sym ?cache circuit property)

let equiv ?jobs ?max_depth ?opt ?incremental c1 c2 =
  (* Interface validation happens in the calling domain, inside miter —
     mismatches raise Invalid_argument before any worker exists. *)
  let m, p = Bmc.miter c1 c2 in
  check ?jobs ?max_depth ?opt ?incremental m p
