(* CDCL SAT solver in the MiniSat lineage.

   Literal encoding: literal [2*v] is variable [v], literal [2*v+1] is its
   negation. Values are kept per literal: [values.(l)] is 0 = unassigned,
   1 = true, 2 = false, and [assign] writes both [l] and [neg l], so the
   propagation loop reads a literal's value with one array load.

   Storage. Every clause lives in one [int] arena and is named by an
   integer handle, [page lsl page_bits lor offset], the position of its
   header:

     word 0   (size lsl 2) lor deleted_bit lor learnt_bit
     word 1   learnt clauses: activity slot (see below);
              unused by problem clauses
     word 2 ..  the literals, the watched pair first

   The arena is a sequence of pages, each an [int array] holding whole
   clauses, and handles grow with arena order. Watch lists, reasons,
   values, the trail and [trail_lim] are [int array]s of handles,
   literals and levels, so propagation, assignment and backtracking store
   only immediates: no pointer is written (and no write barrier runs) on
   the hot path. Learnt-clause activities live in the float array
   [learnt_act], parallel to the [learnts] list; a learnt clause's slot
   word is its index in that list, so a bump is one unboxed float store.

   Deletion marks a clause's header; watchers of deleted clauses are
   dropped lazily by [propagate]. When no page has room, [compact] first
   slides the live clauses towards the arena's start in arena order (so
   relative order, and with it every watch list's order, is unchanged),
   rewriting handles in the watch lists, reasons and clause lists in
   place; only if that leaves under a quarter of the arena free does the
   arena grow, by one page of half its capacity (1.5x). Growing copies
   nothing: a flat array grown by copying leaves each superseded copy to
   the major GC, which held the heap peak ~25% above the boxed-clause
   solver's on the Table 2 rows; pages keep it below.

   Invariants:
   - The two watched literals of every live clause are at positions 0 and 1.
   - When a clause becomes the reason of an implied literal, that literal
     is at position 0 (conflict analysis relies on this).
   - The reason of an assigned variable is a live clause (or [no_clause]);
     unassigned variables have reason [no_clause].
   - [clauses] and [learnts] hold live clauses only; [learnts.(k)]'s slot
     word is [k].
   - Pages after [cur_page] are empty, so new clauses always land after
     every existing one.
   - The trail holds assigned literals in assignment order; [trail_lim]
     marks decision-level boundaries. Assumption decisions occupy the
     lowest levels during a [solve] call. *)

type lit = int
type result = Sat | Unsat

(* A solver configuration. All search heuristics that are safe to vary
   without affecting soundness live here, so that a portfolio can race
   differently-configured solvers on the same query. Every field is
   deterministic: two solvers built from the same configuration and fed
   the same clauses perform the same search (randomized decisions come
   from a PRNG seeded by [seed]). *)
type config = {
  cfg_name : string;
  var_decay : float; (* VSIDS decay, in (0, 1); MiniSat uses 0.95 *)
  restart_first : int; (* conflicts in the first Luby restart period *)
  default_polarity : bool; (* initial saved phase of fresh variables *)
  random_freq : float; (* probability of a randomized decision, in [0, 1] *)
  seed : int; (* PRNG seed for randomized decisions *)
}

let default_config =
  {
    cfg_name = "default";
    var_decay = 0.95;
    restart_first = 100;
    default_polarity = false;
    random_freq = 0.0;
    seed = 0;
  }

(* Diverse configurations for portfolio solving. Index 0 is always the
   default configuration so a 1-solver portfolio degenerates to the
   sequential engine. *)
let portfolio k =
  let decays = [| 0.95; 0.85; 0.99; 0.91 |] in
  let restarts = [| 100; 50; 400; 150 |] in
  List.init k (fun i ->
      if i = 0 then default_config
      else
        {
          cfg_name = Printf.sprintf "p%d" i;
          var_decay = decays.(i mod 4);
          restart_first = restarts.((i + 1) mod 4);
          default_polarity = i mod 2 = 1;
          random_freq = (if i >= 4 then 0.02 else 0.0);
          seed = (91 * i) + 17;
        })

exception Stopped

type budget_kind = Wall_clock | Conflicts | Memory

type budget = {
  b_deadline : float option;
  b_conflicts : int option;
  b_learnts : int option;
  b_clock : unit -> float;
}

let no_budget =
  { b_deadline = None; b_conflicts = None; b_learnts = None; b_clock = (fun () -> 0.) }

exception Out_of_budget of budget_kind

let budget_kind_to_string = function
  | Wall_clock -> "wall_clock"
  | Conflicts -> "conflicts"
  | Memory -> "memory"

type interrupt = I_stopped | I_budget of budget_kind

(* {1 Clause arena layout} *)

let hdr_words = 2
let learnt_bit = 1
let deleted_bit = 2
let no_clause = -1
let page_bits = 32
let page_mask = (1 lsl page_bits) - 1

type t = {
  config : config;
  rng : Random.State.t;
  stop : unit -> bool; (* polled during propagation; true aborts the search *)
  mutable values : int array; (* literal -> 0/1/2 *)
  mutable level : int array;
  mutable reason : int array; (* var -> clause handle, or no_clause *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase: last assigned value *)
  mutable heap : int array;
  mutable heap_index : int array; (* -1 when not in heap *)
  mutable heap_size : int;
  mutable watches : int array array; (* literal -> clause handles *)
  mutable watch_size : int array; (* literal -> used prefix of its watches *)
  mutable seen : bool array;
  mutable trail : int array; (* capacity >= nvars: each var is on it once *)
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable trail_lim_size : int; (* the current decision level *)
  mutable qhead : int;
  mutable pages : int array array; (* the arena, in handle order *)
  mutable page_used : int array; (* page -> words in use from its start *)
  mutable cur_page : int; (* page taking new clauses; later ones are empty *)
  mutable arena_wasted : int; (* words held by deleted clauses *)
  mutable clauses : int array; (* problem clause handles, in addition order *)
  mutable n_clauses : int;
  mutable learnts : int array;
  mutable learnt_act : float array; (* parallel to [learnts] *)
  mutable n_learnts : int;
  (* Conflict-analysis scratch, each of capacity >= nvars + 1, reused by
     every [analyze]: the marked lower-level literals in discovery order,
     the marked variables, and the learnt clause itself. *)
  mutable an_lits : int array;
  mutable an_clear : int array;
  mutable learnt_buf : int array;
  mutable learnt_len : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable nvars : int;
  mutable ok : bool;
  mutable model : bool array;
  mutable model_valid : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable reduces : int;
  mutable learned_total : int;
  (* Periodic statistics sampling: [sample_hook] (when installed) runs
     every [sample_every] conflicts, on the domain running the solve.
     The telemetry layer hooks this to publish solver-progress curves;
     with no hook the per-conflict cost is one comparison. *)
  mutable sample_every : int;
  mutable sample_hook : (stats -> unit) option;
  (* Resource governance: [budget] bounds this instance; [interrupt]
     records why the last solve aborted, so reports can tell budget
     exhaustion from external cancellation. *)
  mutable budget : budget;
  mutable interrupt : interrupt option;
  (* External early-exhaustion request ([trip_budget]): set from a
     sample hook (which must not raise into the search loop itself),
     consumed at the next [check_budget] poll as a normal budget
     abort. *)
  mutable tripped : budget_kind option;
  (* Counter snapshots taken at every [solve] entry, so [last_solve] can
     report the work of the most recent query alone — the number an
     incremental caller wants when the cumulative counters span many
     queries. *)
  mutable base_conflicts : int;
  mutable base_decisions : int;
  mutable base_propagations : int;
  mutable base_restarts : int;
  mutable base_reduces : int;
  mutable base_learned : int;
}

and stats = {
  s_vars : int;
  s_clauses : int;
  s_learnts : int;
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_reduces : int;
  s_learned_total : int;
  s_interrupt : interrupt option;
}

let lit v sign = if sign then 2 * v else (2 * v) + 1
let neg l = l lxor 1
let var_of_lit l = l lsr 1
let lit_sign l = l land 1 = 0

let create ?(config = default_config) ?(stop = fun () -> false) () =
  {
    config;
    rng = Random.State.make [| config.seed; 0x5a7; config.seed lxor 0x2c9 |];
    stop;
    values = Array.make 32 0;
    level = Array.make 16 0;
    reason = Array.make 16 no_clause;
    activity = Array.make 16 0.;
    polarity = Array.make 16 config.default_polarity;
    heap = Array.make 16 0;
    heap_index = Array.make 16 (-1);
    heap_size = 0;
    watches = Array.make 32 [||];
    watch_size = Array.make 32 0;
    seen = Array.make 16 false;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    trail_lim_size = 0;
    qhead = 0;
    pages = [| Array.make 1024 0 |];
    page_used = [| 0 |];
    cur_page = 0;
    arena_wasted = 0;
    clauses = Array.make 16 no_clause;
    n_clauses = 0;
    learnts = Array.make 16 no_clause;
    learnt_act = Array.make 16 0.;
    n_learnts = 0;
    an_lits = Array.make 17 0;
    an_clear = Array.make 17 0;
    learnt_buf = Array.make 17 0;
    learnt_len = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    nvars = 0;
    ok = true;
    model = [||];
    model_valid = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    reduces = 0;
    learned_total = 0;
    sample_every = 0;
    sample_hook = None;
    budget = no_budget;
    interrupt = None;
    tripped = None;
    base_conflicts = 0;
    base_decisions = 0;
    base_propagations = 0;
    base_restarts = 0;
    base_reduces = 0;
    base_learned = 0;
  }

let set_budget s b = s.budget <- b

let num_vars s = s.nvars
let num_clauses s = s.n_clauses
let num_learnts s = s.n_learnts
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations

let stats s =
  {
    s_vars = s.nvars;
    s_clauses = s.n_clauses;
    s_learnts = s.n_learnts;
    s_conflicts = s.conflicts;
    s_decisions = s.decisions;
    s_propagations = s.propagations;
    s_restarts = s.restarts;
    s_reduces = s.reduces;
    s_learned_total = s.learned_total;
    s_interrupt = s.interrupt;
  }

(* The delta view: cumulative counters minus the snapshot taken when the
   last [solve] began. Size-like fields (vars, clauses, live learnts) are
   absolute — a delta of those is meaningless. *)
let last_solve s =
  {
    s_vars = s.nvars;
    s_clauses = s.n_clauses;
    s_learnts = s.n_learnts;
    s_conflicts = s.conflicts - s.base_conflicts;
    s_decisions = s.decisions - s.base_decisions;
    s_propagations = s.propagations - s.base_propagations;
    s_restarts = s.restarts - s.base_restarts;
    s_reduces = s.reduces - s.base_reduces;
    s_learned_total = s.learned_total - s.base_learned;
    s_interrupt = s.interrupt;
  }

(* Abort helpers: every interruption path records its cause before
   unwinding, so [stats] can report it after the exception. *)
let abort_stopped s =
  s.interrupt <- Some I_stopped;
  raise Stopped

let abort_budget s kind =
  s.interrupt <- Some (I_budget kind);
  raise (Out_of_budget kind)

(* Budget poll, shared by the propagation cancellation point and the
   solve entry. The conflict cap is checked where conflicts happen (in
   the search loop); here we watch the clock and the learnt watermark. *)
let check_budget s =
  (match s.tripped with
  | Some kind ->
      (* Clear before aborting so the solver stays reusable after the
         exception is handled (a retry with a fresh budget must not
         re-trip on entry). *)
      s.tripped <- None;
      abort_budget s kind
  | None -> ());
  (match s.budget.b_deadline with
  | Some d when s.budget.b_clock () > d -> abort_budget s Wall_clock
  | _ -> ());
  match s.budget.b_learnts with
  | Some m when s.n_learnts > m -> abort_budget s Memory
  | _ -> ()

let trip_budget s kind = s.tripped <- Some kind

let on_sample s ~every hook =
  if every <= 0 then invalid_arg "Sat.Solver.on_sample: every must be positive";
  s.sample_every <- every;
  s.sample_hook <- Some hook

let clear_sample s =
  s.sample_every <- 0;
  s.sample_hook <- None

(* {1 Variable order: binary max-heap on activity} *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let rec sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(parent) then begin
      let a = s.heap.(i) and b = s.heap.(parent) in
      s.heap.(i) <- b;
      s.heap.(parent) <- a;
      s.heap_index.(b) <- i;
      s.heap_index.(a) <- parent;
      sift_up s parent
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let a = s.heap.(i) and b = s.heap.(!best) in
    s.heap.(i) <- b;
    s.heap.(!best) <- a;
    s.heap_index.(b) <- i;
    s.heap_index.(a) <- !best;
    sift_down s !best
  end

let heap_insert s v =
  if s.heap_index.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_index.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_index.(top) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_index.(s.heap.(0)) <- 0;
    sift_down s 0
  end;
  top

(* {1 Growth} *)

let grow_array a n dummy =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  let n = s.nvars in
  s.values <- grow_array s.values (2 * n) 0;
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n no_clause;
  s.activity <- grow_array s.activity n 0.;
  s.polarity <- grow_array s.polarity n s.config.default_polarity;
  s.heap <- grow_array s.heap n 0;
  s.heap_index <- grow_array s.heap_index n (-1);
  s.seen <- grow_array s.seen n false;
  s.trail <- grow_array s.trail n 0;
  s.an_lits <- grow_array s.an_lits (n + 1) 0;
  s.an_clear <- grow_array s.an_clear (n + 1) 0;
  s.learnt_buf <- grow_array s.learnt_buf (n + 1) 0;
  s.watches <- grow_array s.watches (2 * n) [||];
  s.watch_size <- grow_array s.watch_size (2 * n) 0;
  heap_insert s v;
  v

(* {1 Values and assignment} *)

let value_lit s l = s.values.(l)
let var_value s v = s.values.(2 * v)

let decision_level s = s.trail_lim_size

(* Make literal [l] true with the given reason. Precondition: unassigned
   (so the trail, sized to the variable count, has room). *)
let assign s l reason =
  let v = l lsr 1 in
  s.values.(l) <- 1;
  s.values.(l lxor 1) <- 2;
  s.level.(v) <- s.trail_lim_size;
  s.reason.(v) <- reason;
  s.polarity.(v) <- l land 1 = 0;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

(* Returns false on inconsistency (literal already false). *)
let enqueue s l reason =
  match value_lit s l with
  | 1 -> true
  | 2 -> false
  | _ ->
      assign s l reason;
      true

(* Open a decision level at the current end of the trail. *)
let new_level s =
  if s.trail_lim_size = Array.length s.trail_lim then
    s.trail_lim <- grow_array s.trail_lim (s.trail_lim_size + 1) 0;
  s.trail_lim.(s.trail_lim_size) <- s.trail_size;
  s.trail_lim_size <- s.trail_lim_size + 1

let cancel_until s lv =
  if s.trail_lim_size > lv then begin
    let bound = s.trail_lim.(lv) in
    for i = s.trail_size - 1 downto bound do
      let v = s.trail.(i) lsr 1 in
      s.values.(2 * v) <- 0;
      s.values.((2 * v) + 1) <- 0;
      s.reason.(v) <- no_clause;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.trail_lim_size <- lv;
    s.qhead <- bound
  end

(* {1 Activities} *)

let cla_decay = 1.0 /. 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_index.(v) >= 0 then sift_up s s.heap_index.(v)

(* Bump the learnt clause whose activity slot is [k]. The rescale covers
   the [n_learnts] listed clauses: [record_learnt] bumps a new clause
   before listing it, so its own first bump is never rescaled. *)
let bump_clause s k =
  let act = s.learnt_act in
  act.(k) <- act.(k) +. s.cla_inc;
  if act.(k) > 1e20 then begin
    for i = 0 to s.n_learnts - 1 do
      act.(i) <- act.(i) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_activities s =
  s.var_inc <- s.var_inc *. (1.0 /. s.config.var_decay);
  s.cla_inc <- s.cla_inc *. cla_decay

(* {1 Arena} *)

(* Word [i] of clause [c] (0 = header, 1 = slot, 2.. = literals). *)
let word s c i = s.pages.(c lsr page_bits).((c land page_mask) + i)
let set_word s c i x = s.pages.(c lsr page_bits).((c land page_mask) + i) <- x
let clause_size s c = word s c 0 lsr 2

let push_watch s l c =
  let ws = s.watches.(l) and n = s.watch_size.(l) in
  if n = Array.length ws then begin
    let ws' = Array.make (max 4 (2 * n)) no_clause in
    Array.blit ws 0 ws' 0 n;
    ws'.(n) <- c;
    s.watches.(l) <- ws'
  end
  else ws.(n) <- c;
  s.watch_size.(l) <- n + 1

let watch_clause s c =
  push_watch s (word s c hdr_words) c;
  push_watch s (word s c (hdr_words + 1)) c

let delete_clause s c =
  set_word s c 0 (word s c 0 lor deleted_bit);
  s.arena_wasted <- s.arena_wasted + clause_size s c + hdr_words

(* Visit the clauses in arena order: [f page offset words] for each,
   [words] counting the header. *)
let iter_clauses s f =
  Array.iteri
    (fun k a ->
      let h = ref 0 in
      while !h < s.page_used.(k) do
        let n = (a.(!h) lsr 2) + hdr_words in
        f a !h n;
        h := !h + n
      done)
    s.pages

(* Slide every live clause down over the deleted ones, keeping arena
   order, and rewrite every stored handle. Pass 1 leaves each live
   clause's new handle in its slot word (moving on to the next page
   where a clause does not fit the rest of one); pass 2 maps the watch
   lists (dropping watchers of deleted clauses, which [propagate] would
   skip and drop anyway, so no watch order changes), the reasons and the
   clause lists; pass 3 moves the clauses (towards the arena's start
   only, so a move never overwrites a clause not yet moved) and restores
   the learnt slots. Pages past the last filled one are left empty. *)
let compact s =
  let pages = s.pages in
  let used = Array.make (Array.length pages) 0 in
  let dp = ref 0 and doff = ref 0 in
  iter_clauses s (fun a h n ->
      if a.(h) land deleted_bit = 0 then begin
        while !doff + n > Array.length pages.(!dp) do
          used.(!dp) <- !doff;
          incr dp;
          doff := 0
        done;
        a.(h + 1) <- (!dp lsl page_bits) lor !doff;
        doff := !doff + n
      end);
  used.(!dp) <- !doff;
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    let j = ref 0 in
    for i = 0 to s.watch_size.(l) - 1 do
      let c = ws.(i) in
      if word s c 0 land deleted_bit = 0 then begin
        ws.(!j) <- word s c 1;
        incr j
      end
    done;
    s.watch_size.(l) <- !j
  done;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r <> no_clause then s.reason.(v) <- word s r 1
  done;
  for i = 0 to s.n_clauses - 1 do
    s.clauses.(i) <- word s s.clauses.(i) 1
  done;
  for k = 0 to s.n_learnts - 1 do
    s.learnts.(k) <- word s s.learnts.(k) 1
  done;
  iter_clauses s (fun a h n ->
      if a.(h) land deleted_bit = 0 then
        let c = a.(h + 1) in
        Array.blit a h pages.(c lsr page_bits) (c land page_mask) n);
  s.page_used <- used;
  s.cur_page <- !dp;
  s.arena_wasted <- 0;
  for k = 0 to s.n_learnts - 1 do
    set_word s s.learnts.(k) 1 k
  done

(* Point [cur_page] at the first page from it on with room for [need]
   words; false when there is none. Pages after [cur_page] are empty. *)
let rec find_room s need =
  let k = s.cur_page in
  if s.page_used.(k) + need <= Array.length s.pages.(k) then true
  else if k + 1 < Array.length s.pages then begin
    s.cur_page <- k + 1;
    find_room s need
  end
  else false

(* Store [lits.(0 .. len-1)] as a new clause and return its handle.
   When no page has room, the arena is compacted first, and it grows
   (by a page of half its capacity, i.e. 1.5x) only when that leaves
   less than a quarter of it free, so growth follows the live clause
   count, not the deleted one. Growth copies nothing. *)
let alloc s ~learnt lits len =
  let need = len + hdr_words in
  if not (find_room s need) then begin
    if s.arena_wasted > 0 then compact s;
    let cap = Array.fold_left (fun acc a -> acc + Array.length a) 0 s.pages in
    let live = Array.fold_left ( + ) 0 s.page_used in
    if (not (find_room s need)) || live + need > cap - (cap / 4) then begin
      s.pages <- Array.append s.pages [| Array.make (max need (cap / 2)) 0 |];
      s.page_used <- Array.append s.page_used [| 0 |];
      ignore (find_room s need : bool)
    end
  end;
  let k = s.cur_page in
  let a = s.pages.(k) and h = s.page_used.(k) in
  a.(h) <- (len lsl 2) lor if learnt then learnt_bit else 0;
  a.(h + 1) <- no_clause;
  Array.blit lits 0 a (h + hdr_words) len;
  s.page_used.(k) <- h + need;
  (k lsl page_bits) lor h

(* {1 Propagation} *)

(* Propagate the trail from [qhead] to fixpoint; the conflicting clause's
   handle, or [no_clause]. *)
let propagate s =
  let confl = ref no_clause in
  while !confl = no_clause && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* Cancellation point: cheap modulo check so the poll costs nothing
       on the hot path; a firing stop or an exhausted budget aborts the
       whole solve and leaves the solver in an undefined search state
       (see {!Stopped} / {!Out_of_budget}). *)
    if s.propagations land 1023 = 0 then begin
      if s.stop () then abort_stopped s;
      check_budget s
    end;
    let false_lit = p lxor 1 in
    (* Propagation never allocates a clause, so the pages are fixed here,
       and a replacement watch is never [false_lit], so [ws] is too. *)
    let pages = s.pages and values = s.values in
    let ws = s.watches.(false_lit) in
    let n = s.watch_size.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      let a = pages.(c lsr page_bits) and h = c land page_mask in
      let hdr = a.(h) in
      if hdr land deleted_bit = 0 then begin
        let w0 = h + hdr_words in
        (* Ensure the false literal is at position 1. *)
        if a.(w0) = false_lit then begin
          a.(w0) <- a.(w0 + 1);
          a.(w0 + 1) <- false_lit
        end;
        let first = a.(w0) in
        let first_val = values.(first) in
        if first_val = 1 then begin
          (* Clause satisfied; keep the watch. *)
          ws.(!j) <- c;
          incr j
        end
        else begin
          (* Look for a replacement watch. *)
          let stop = w0 + (hdr lsr 2) in
          let k = ref (w0 + 2) in
          while !k < stop && values.(a.(!k)) = 2 do
            incr k
          done;
          if !k < stop then begin
            let l = a.(!k) in
            a.(w0 + 1) <- l;
            a.(!k) <- false_lit;
            push_watch s l c
          end
          else begin
            (* Unit or conflicting. *)
            ws.(!j) <- c;
            incr j;
            if first_val = 0 then assign s first c
            else begin
              (* Conflict: keep the remaining watchers and stop. *)
              while !i < n do
                ws.(!j) <- ws.(!i);
                incr j;
                incr i
              done;
              confl := c
            end
          end
        end
      end
    done;
    s.watch_size.(false_lit) <- !j
  done;
  !confl

(* {1 Conflict analysis (first UIP)} *)

(* Derive the first-UIP clause of conflict [confl] into
   [learnt_buf.(0 .. learnt_len-1)] and return its backtrack level. The
   asserting literal comes first, then the lower-level literals newest
   discovered first. *)
let analyze s confl =
  let pages = s.pages and seen = s.seen and level = s.level in
  let lits = s.an_lits and to_clear = s.an_clear in
  let n_lits = ref 0 and n_clear = ref 0 in
  let dl = s.trail_lim_size in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_size - 1) in
  let continue = ref true in
  let first = ref true in
  while !continue do
    let a = pages.(!confl lsr page_bits) and h = !confl land page_mask in
    let hdr = a.(h) in
    if hdr land learnt_bit <> 0 then bump_clause s a.(h + 1);
    let start = if !first then 0 else 1 in
    for j = h + hdr_words + start to h + hdr_words + (hdr lsr 2) - 1 do
      let q = a.(j) in
      let v = q lsr 1 in
      if (not seen.(v)) && level.(v) > 0 then begin
        seen.(v) <- true;
        to_clear.(!n_clear) <- v;
        incr n_clear;
        bump_var s v;
        if level.(v) >= dl then incr counter
        else begin
          lits.(!n_lits) <- q;
          incr n_lits
        end
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not seen.(s.trail.(!idx) lsr 1) do
      decr idx
    done;
    p := s.trail.(!idx);
    decr idx;
    seen.(!p lsr 1) <- false;
    decr counter;
    first := false;
    if !counter = 0 then continue := false else confl := s.reason.(!p lsr 1)
  done;
  (* Local conflict-clause minimization, as in basic MiniSat: a literal
     is dropped when every other literal of its reason is at level 0 or
     already in the clause (its variable still marked seen). No
     recursion into the reasons' own antecedents. *)
  let out = s.learnt_buf in
  out.(0) <- neg !p;
  let len = ref 1 and btlevel = ref 0 in
  for i = !n_lits - 1 downto 0 do
    let q = lits.(i) in
    let r = s.reason.(q lsr 1) in
    let redundant =
      r <> no_clause
      &&
      let a = pages.(r lsr page_bits) and h = r land page_mask in
      a.(h) lsr 2 > 1
      &&
      let ok = ref true in
      for j = h + hdr_words + 1 to h + hdr_words + (a.(h) lsr 2) - 1 do
        let w = a.(j) lsr 1 in
        if level.(w) > 0 && not seen.(w) then ok := false
      done;
      !ok
    in
    if not redundant then begin
      out.(!len) <- q;
      incr len;
      if level.(q lsr 1) > !btlevel then btlevel := level.(q lsr 1)
    end
  done;
  for i = 0 to !n_clear - 1 do
    seen.(to_clear.(i)) <- false
  done;
  s.learnt_len <- !len;
  !btlevel

(* {1 Clause management} *)

let is_locked s c =
  let v = word s c hdr_words lsr 1 in
  s.reason.(v) = c && var_value s v <> 0

(* Rebuild [learnts] from the slots [order] names, dropping the clauses
   [drop] selects (which are deleted) and renumbering the slots of the
   rest in their new order. *)
let refill_learnts s order drop =
  let old = s.learnts and old_act = s.learnt_act in
  let learnts = Array.make (Array.length old) no_clause in
  let act = Array.make (Array.length old) 0. in
  let m = ref 0 in
  Array.iteri
    (fun i k ->
      let c = old.(k) in
      if drop i c then delete_clause s c
      else begin
        learnts.(!m) <- c;
        act.(!m) <- old_act.(k);
        set_word s c 1 !m;
        incr m
      end)
    order;
  s.learnts <- learnts;
  s.learnt_act <- act;
  s.n_learnts <- !m

let reduce_db s =
  s.reduces <- s.reduces + 1;
  (* Remove the less active half of the learnt clauses; the survivors
     stay in activity order. *)
  let act = s.learnt_act in
  let order = Array.init s.n_learnts Fun.id in
  Array.sort (fun x y -> Float.compare act.(x) act.(y)) order;
  let limit = s.n_learnts / 2 in
  refill_learnts s order (fun i c ->
      i < limit && clause_size s c > 2 && not (is_locked s c))

let record_learnt s btlevel =
  s.learned_total <- s.learned_total + 1;
  cancel_until s btlevel;
  let lits = s.learnt_buf and len = s.learnt_len in
  if len = 1 then begin
    if not (enqueue s lits.(0) no_clause) then s.ok <- false
  end
  else begin
    (* Position 1 must hold a literal from the backtrack level so the
       watches are on the two highest-level literals. *)
    let best = ref 1 in
    for k = 2 to len - 1 do
      if s.level.(lits.(!best) lsr 1) < s.level.(lits.(k) lsr 1) then best := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let c = alloc s ~learnt:true lits len in
    let k = s.n_learnts in
    if k = Array.length s.learnts then begin
      s.learnts <- grow_array s.learnts (k + 1) no_clause;
      s.learnt_act <- grow_array s.learnt_act (k + 1) 0.
    end;
    s.learnts.(k) <- c;
    s.learnt_act.(k) <- 0.;
    set_word s c 1 k;
    (* Bumped before it is counted in [n_learnts], so a rescale its own
       bump triggers leaves it out. *)
    bump_clause s k;
    s.n_learnts <- k + 1;
    watch_clause s c;
    ignore (enqueue s lits.(0) c)
  end

let add_clause s lits =
  if s.ok then begin
    assert (decision_level s = 0);
    (* Simplify: drop duplicates and false literals, detect tautologies and
       satisfied clauses. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (neg l) lits) lits
      || List.exists (fun l -> value_lit s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> value_lit s l <> 2) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] -> if not (enqueue s l no_clause) then s.ok <- false
      | _ ->
          let arr = Array.of_list lits in
          let c = alloc s ~learnt:false arr (Array.length arr) in
          watch_clause s c;
          if s.n_clauses = Array.length s.clauses then
            s.clauses <- grow_array s.clauses (s.n_clauses + 1) no_clause;
          s.clauses.(s.n_clauses) <- c;
          s.n_clauses <- s.n_clauses + 1
    end
  end

(* {1 Search} *)

let luby y x =
  (* Luby restart sequence, as in MiniSat. *)
  let rec find_size size seq x = if size < x + 1 then find_size ((2 * size) + 1) (seq + 1) x else (size, seq) in
  let rec go size seq x =
    if size - 1 = x then Float.pow y (float_of_int seq)
    else
      let size = (size - 1) / 2 in
      let seq = seq - 1 in
      go size seq (x mod size)
  in
  let size, seq = find_size 1 0 x in
  go size seq x

let decide s =
  let rec pick () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if var_value s v = 0 then v else pick ()
  in
  (* Occasional randomized decision (portfolio diversification): peek at a
     random heap slot without disturbing the heap; assigned entries are
     skipped, falling back to the activity order. *)
  let random_pick () =
    if
      s.config.random_freq > 0.0
      && s.heap_size > 0
      && Random.State.float s.rng 1.0 < s.config.random_freq
    then
      let v = s.heap.(Random.State.int s.rng s.heap_size) in
      if var_value s v = 0 then v else -1
    else -1
  in
  let v = match random_pick () with -1 -> pick () | v -> v in
  if v < 0 then false
  else begin
    s.decisions <- s.decisions + 1;
    new_level s;
    assign s (lit v s.polarity.(v)) no_clause;
    true
  end

let solve ?(assumptions = []) s =
  s.model_valid <- false;
  s.interrupt <- None;
  s.base_conflicts <- s.conflicts;
  s.base_decisions <- s.decisions;
  s.base_propagations <- s.propagations;
  s.base_restarts <- s.restarts;
  s.base_reduces <- s.reduces;
  s.base_learned <- s.learned_total;
  if not s.ok then Unsat
  else begin
    (* A deadline that already passed (or a conflict cap already spent by
       earlier incremental calls) must abort even if this query would
       propagate to an answer without ever reaching a poll point. *)
    check_budget s;
    (match s.budget.b_conflicts with
    | Some cap when s.conflicts >= cap -> abort_budget s Conflicts
    | _ -> ());
    let assumptions = Array.of_list assumptions in
    let max_learnts = ref (float_of_int (max 1000 (s.n_clauses / 3))) in
    let restart = ref 0 in
    let status = ref None in
    while !status = None do
      let budget =
        int_of_float (float_of_int s.config.restart_first *. luby 2. !restart)
      in
      incr restart;
      let conflict_count = ref 0 in
      (* One restart period. *)
      let inner_done = ref false in
      while (not !inner_done) && !status = None do
        let confl = propagate s in
        if confl <> no_clause then begin
          s.conflicts <- s.conflicts + 1;
          incr conflict_count;
          (match s.budget.b_conflicts with
          | Some cap when s.conflicts >= cap -> abort_budget s Conflicts
          | _ -> ());
          (match s.sample_hook with
          | Some hook when s.conflicts mod s.sample_every = 0 -> hook (stats s)
          | _ -> ());
          if decision_level s = 0 then begin
            s.ok <- false;
            status := Some Unsat
          end
          else begin
            let btlevel = analyze s confl in
            record_learnt s btlevel;
            decay_activities s;
            if not s.ok then status := Some Unsat
          end
        end
        else if !conflict_count >= budget then begin
          s.restarts <- s.restarts + 1;
          cancel_until s 0;
          inner_done := true
        end
        else if float_of_int s.n_learnts > !max_learnts then begin
          max_learnts := !max_learnts *. 1.5;
          reduce_db s
        end
        else if decision_level s < Array.length assumptions then begin
          let p = assumptions.(decision_level s) in
          match value_lit s p with
          | 1 ->
              (* Already true: open a dummy decision level. *)
              new_level s
          | 2 -> status := Some Unsat
          | _ ->
              new_level s;
              assign s p no_clause
        end
        else if not (decide s) then begin
          (* All variables assigned: a model. *)
          s.model <- Array.init s.nvars (fun v -> var_value s v = 1);
          s.model_valid <- true;
          status := Some Sat
        end
      done
    done;
    cancel_until s 0;
    s.qhead <- 0;
    (match !status with
    | Some Sat -> ()
    | _ -> s.model_valid <- false);
    Option.get !status
  end

let value s v =
  if not s.model_valid then failwith "Sat.value: no model available";
  if v < Array.length s.model then s.model.(v) else false

(* {1 Activation literals}

   The incremental-BMC protocol: guard a clause group with a fresh
   literal [a] by adding each clause as [¬a ∨ C], solve under the
   assumption [a] to activate the group, and retire the group forever
   with the unit clause [¬a] — after which every guarded clause is
   satisfied at level 0 and {!simplify} may physically delete it. *)

let new_act s = lit (new_var s) true
let add_clause_act s ~act lits = add_clause s (neg act :: lits)
let retire s act = add_clause s [ neg act ]

(* Delete every clause satisfied at level 0 (retired groups, subsumed
   problem clauses, satisfied learnts), compact the arena and rebuild
   the watch lists: problem clauses, then learnts, each in list order.

   Safe at decision level 0 only. Reason clauses of level-0 implied
   literals are kept ([is_locked]) even when satisfied: level-0 vars are
   never unassigned, and keeping their reasons means no dangling
   handle question ever arises. Every surviving clause's watch
   positions 0/1 are non-false at the level-0 fixpoint (propagation
   moved the watches, or the clause was satisfied and is now gone), so
   re-watching positions 0 and 1 preserves the watch invariant. *)
let simplify s =
  if s.ok then begin
    assert (decision_level s = 0);
    if propagate s <> no_clause then s.ok <- false;
    if s.ok then begin
      let satisfied c =
        let sat = ref false in
        for j = hdr_words to hdr_words + clause_size s c - 1 do
          if value_lit s (word s c j) = 1 then sat := true
        done;
        !sat
      in
      let collect c = (not (is_locked s c)) && satisfied c in
      let m = ref 0 in
      for i = 0 to s.n_clauses - 1 do
        let c = s.clauses.(i) in
        if collect c then delete_clause s c
        else begin
          s.clauses.(!m) <- c;
          incr m
        end
      done;
      s.n_clauses <- !m;
      refill_learnts s (Array.init s.n_learnts Fun.id) (fun _ c -> collect c);
      for l = 0 to (2 * s.nvars) - 1 do
        s.watch_size.(l) <- 0
      done;
      if s.arena_wasted > 0 then compact s;
      for i = 0 to s.n_clauses - 1 do
        watch_clause s s.clauses.(i)
      done;
      for k = 0 to s.n_learnts - 1 do
        watch_clause s s.learnts.(k)
      done
    end
  end

let config s = s.config

let pp_stats fmt s =
  Format.fprintf fmt
    "vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d propagations=%d \
     restarts=%d reduces=%d"
    s.nvars s.n_clauses s.n_learnts s.conflicts s.decisions s.propagations
    s.restarts s.reduces
