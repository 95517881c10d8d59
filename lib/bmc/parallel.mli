(** Parallel bounded model checking over OCaml 5 domains.

    Every AutoCC run checks many independent assertions over the same
    two-universe miter, and solver wall-clock is the usability bottleneck
    of the refine/re-run loop. This module shards that work across a
    domain pool, with two composable strategies:

    - {b assertion sharding} ({!check}, {!prove}): a property with [n]
      assertions is split into per-assertion (or per-group) jobs, each
      verified by an independent solver over the cone of its own
      assertions. Outcomes merge back into the ordinary {!Bmc.outcome} /
      {!Bmc.induction_outcome}: the shallowest counterexample wins, and
      as soon as one is found every job searching at the same depth or
      deeper is cancelled through an atomic stop flag polled in the
      solvers' propagation loops ({!Sat.Solver.Stopped}).
    - {b portfolio} ({!check} with [~portfolio:k]): [k] solver
      configurations ({!Sat.Solver.portfolio} — differing restart
      cadence, decay, polarity and decision-randomization seeds) race on
      the {e whole} property; the first answer wins and cancels the
      rest.

    {b Determinism.} The outcome kind and the counterexample depth are
    deterministic: a shard can only be cancelled once a counterexample at
    most as shallow as its current depth exists, so the minimum depth is
    always discovered. The reported input trace (and hence the failing-
    assertion set, which is re-validated on the winning trace against the
    {e full} property) is deterministic modulo which equally-shallow
    counterexample wins the race — the same caveat that applies to any
    portfolio FPV tool.

    {b Callbacks.} [progress] is only ever invoked from the calling
    domain, with a strictly increasing sequence of depths: worker domains
    enqueue ticks into a mutex-protected queue that the coordinating
    (calling) domain drains. User code never runs on a worker domain.

    {b Counterexamples} found by a shard are replayed on the {!Sim}
    simulator against the full property before being returned, exactly
    like the sequential engine, so a returned CEX is always
    simulation-validated and its [cex_failed] set is complete for its
    trace. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** Per-job accounting, for merged reports ({!Report.merge_stats}). *)
type job_verdict =
  | Job_cex of Bmc.cex  (** this job found a counterexample *)
  | Job_bounded  (** no CEX within the bound *)
  | Job_proved of int  (** k-induction succeeded at the carried [k] *)
  | Job_unknown of Bmc.unknown_reason
      (** inconclusive, after every retry the policy allowed: bound
          reached without an inductive answer, a budget fired, or a
          fault was injected *)
  | Job_cancelled  (** stopped because another job answered first *)
  | Job_failed of exn  (** the job raised; re-raised after the pool drains *)

type job_result = {
  job_label : string;  (** assertion names (shard) or config name (portfolio) *)
  job_verdict : job_verdict;
  job_stats : Bmc.stats;  (** this job's own solver statistics *)
  job_retries : int;
      (** extra attempts the {!Retry} policy spent on this job (0 when
          the first attempt was conclusive or retries were disabled) *)
  job_wall : float;  (** seconds of wall-clock this job occupied a worker *)
  job_cpu : float;
      (** CPU seconds of the worker domain while it ran this job
          ({!Obs.Clock.thread_cpu_s}); [job_wall -. job_cpu] is time the
          job spent descheduled or blocked *)
}

type detail = {
  par_strategy : string;  (** ["shard"] or ["portfolio"] *)
  par_workers : int;  (** domains used (1 = in-calling-domain fallback) *)
  par_wall : float;
      (** wall-clock seconds of the whole parallel run, spawn to join —
          the denominator of pool utilization *)
  par_results : job_result list;  (** in job order *)
}

val check :
  ?jobs:int ->
  ?portfolio:int ->
  ?group_size:int ->
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?opt:Opt.level ->
  ?budget:Bmc.budget ->
  ?retry:Retry.policy ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  Bmc.property ->
  Bmc.outcome
(** Drop-in parallel replacement for {!Bmc.check}.

    @param jobs worker-domain cap; defaults to {!default_jobs}. [1] runs
      every job in the calling domain (the single-domain fallback path —
      same scheduler and merge code, no spawns).
    @param portfolio when given (> 1), race that many solver
      configurations on the whole property instead of sharding.
    @param group_size assertions per shard job (default 1, i.e. one job
      per assertion; larger groups amortize blasting for very cheap
      assertions). Ignored in portfolio mode.
    @param opt netlist-optimization level (default {!Opt.O0}), forwarded
      to the sequential engine inside each job — every shard optimizes
      its own slim circuit independently, in its worker domain, so the
      optimization work is parallelized along with the solving.
    @param budget per-{e job} resource budget (default {!Bmc.no_budget}):
      each shard or portfolio member gets its own wall-clock deadline
      pinned at its attempt's start, so one straggler exhausts {e its}
      budget, frees its worker, and degrades to [Job_unknown] without
      dragging down the rest of the run.
    @param retry retry policy for inconclusive jobs (default
      {!Retry.default}, i.e. no retries): transient Unknowns are re-run
      on the same worker with escalated budgets and (in shard mode)
      alternate solver configurations, after capped exponential backoff.
    @param incremental engine selection, forwarded verbatim to
      {!Bmc.check} inside every job (default [true]): each shard or
      portfolio member keeps one persistent solver across its depth
      sequence. [false] selects the scratch differential oracle in every
      job.
    @param sym symmetric node pairs of a two-universe miter, forwarded
      to every job's {!Bmc.check}; pairs outside a shard's cone are
      dropped by the per-job optimizer remap, so sharding composes with
      symmetric blasting unchanged.
    @param cache one shared verdict cache (see {!Cache}). Lookups and
      stores are mutex-guarded and the store keeps a single writer, so
      all jobs may share the one instance; per-shard keys are the same
      single-assertion keys {!Bmc.check_each} uses.

    Merged verdicts order as [Cex > Unknown > Bounded_proof]: any
    counterexample wins outright; otherwise any job still inconclusive
    after retries weakens the whole answer to [Unknown] whose
    [stats.depth_reached] is the weakest job's fully-checked depth. In
    portfolio mode one conclusive racer is enough — an exhausted racer
    neither wins nor cancels the race. *)

val check_detailed :
  ?jobs:int ->
  ?portfolio:int ->
  ?group_size:int ->
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?opt:Opt.level ->
  ?budget:Bmc.budget ->
  ?retry:Retry.policy ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  Bmc.property ->
  Bmc.outcome * detail
(** {!check}, plus per-job accounting. *)

val prove :
  ?jobs:int ->
  ?group_size:int ->
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?opt:Opt.level ->
  ?budget:Bmc.budget ->
  ?retry:Retry.policy ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  Bmc.property ->
  Bmc.induction_outcome
(** Parallel k-induction by assertion sharding. Sound but possibly less
    complete than {!Bmc.prove}: each shard's inductive step may only
    assume {e its own} assertions held on the previous [k] cycles, so a
    property that is only jointly inductive merges as [Unknown] even
    though the sequential engine proves it. [Refuted] results are exact
    (the base case is plain BMC) and merge earliest-depth-first;
    [Proved] requires every shard to prove, and carries the largest [k]. *)

val prove_detailed :
  ?jobs:int ->
  ?group_size:int ->
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?opt:Opt.level ->
  ?budget:Bmc.budget ->
  ?retry:Retry.policy ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  Bmc.property ->
  Bmc.induction_outcome * detail

val equiv :
  ?jobs:int ->
  ?max_depth:int ->
  ?opt:Opt.level ->
  ?incremental:bool ->
  Rtl.Circuit.t ->
  Rtl.Circuit.t ->
  Bmc.outcome
(** Parallel {!Bmc.equiv}: the per-output equality assertions of the
    miter are sharded across the pool. Interface mismatches raise
    [Invalid_argument] from the calling domain before any worker is
    spawned, exactly like the sequential version. *)
