(* The SAT solver is validated against brute-force enumeration on random
   instances, plus directed tests: unit propagation chains, pigeonhole
   principle (unsat), assumptions, and incremental use. *)

module S = Sat.Solver

let make_solver nvars =
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  s

(* A CNF is a list of clauses; a clause a list of (var, sign). *)
let brute_force nvars cnf =
  let rec go assignment v =
    if v = nvars then
      List.for_all
        (fun clause ->
          List.exists (fun (x, sign) -> assignment.(x) = sign) clause)
        cnf
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make nvars false) 0

let solve_cnf nvars cnf =
  let s = make_solver nvars in
  List.iter (fun clause -> S.add_clause s (List.map (fun (v, sign) -> S.lit v sign) clause)) cnf;
  (s, S.solve s)

let check_model s cnf =
  List.for_all
    (fun clause -> List.exists (fun (v, sign) -> S.value s v = sign) clause)
    cnf

let random_cnf st nvars nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Random.State.int st 4 in
      List.init len (fun _ ->
          (Random.State.int st nvars, Random.State.bool st)))

let prop_random_cnf seed =
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 12 in
  let nclauses = 1 + Random.State.int st 50 in
  let cnf = random_cnf st nvars nclauses in
  let expected = brute_force nvars cnf in
  let s, result = solve_cnf nvars cnf in
  match result with
  | S.Sat -> expected && check_model s cnf
  | S.Unsat -> not expected

let prop_assumptions seed =
  (* Solving under assumptions must agree with adding them as unit
     clauses, and must not poison later solves. *)
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 10 in
  let cnf = random_cnf st nvars (1 + Random.State.int st 30) in
  let n_assum = 1 + Random.State.int st 3 in
  let assum = List.init n_assum (fun _ -> (Random.State.int st nvars, Random.State.bool st)) in
  let s, _ = solve_cnf nvars cnf in
  let assumptions = List.map (fun (v, sign) -> S.lit v sign) assum in
  let with_assumptions = S.solve ~assumptions s in
  let expected =
    brute_force nvars (cnf @ List.map (fun a -> [ a ]) assum)
  in
  let plain_after = S.solve s in
  let plain_expected = brute_force nvars cnf in
  (match with_assumptions with S.Sat -> expected | S.Unsat -> not expected)
  && (match plain_after with S.Sat -> plain_expected | S.Unsat -> not plain_expected)

let prop_incremental seed =
  (* Adding clauses one batch at a time must give the same verdicts as
     solving each prefix from scratch. *)
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 10 in
  let batches = List.init 3 (fun _ -> random_cnf st nvars (1 + Random.State.int st 15)) in
  let s = make_solver nvars in
  let acc = ref [] in
  List.for_all
    (fun batch ->
      acc := !acc @ batch;
      List.iter
        (fun clause ->
          S.add_clause s (List.map (fun (v, sign) -> S.lit v sign) clause))
        batch;
      let expected = brute_force nvars !acc in
      match S.solve s with S.Sat -> expected | S.Unsat -> not expected)
    batches

let test_trivial () =
  let s = make_solver 2 in
  Alcotest.(check bool) "empty instance sat" true (S.solve s = S.Sat);
  S.add_clause s [ S.lit 0 true ];
  S.add_clause s [ S.lit 0 false; S.lit 1 true ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v0" true (S.value s 0);
  Alcotest.(check bool) "v1 implied" true (S.value s 1);
  S.add_clause s [ S.lit 1 false ];
  Alcotest.(check bool) "now unsat" true (S.solve s = S.Unsat)

let test_empty_clause () =
  let s = make_solver 1 in
  S.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (S.solve s = S.Unsat)

let test_pigeonhole () =
  (* PHP(n+1, n): n+1 pigeons in n holes, classic unsat family that
     requires real conflict analysis. Variable p*n + h = pigeon p in hole
     h. *)
  let pigeons = 5 and holes = 4 in
  let s = make_solver (pigeons * holes) in
  let v p h = (p * holes) + h in
  for p = 0 to pigeons - 1 do
    S.add_clause s (List.init holes (fun h -> S.lit (v p h) true))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        S.add_clause s [ S.lit (v p1 h) false; S.lit (v p2 h) false ]
      done
    done
  done;
  Alcotest.(check bool) "pigeonhole unsat" true (S.solve s = S.Unsat)

let test_graph_coloring () =
  (* 3-coloring of a 5-cycle is satisfiable; 2-coloring is not. *)
  let cycle = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let solve_coloring colors =
    let s = make_solver (5 * colors) in
    let v node c = (node * colors) + c in
    for node = 0 to 4 do
      S.add_clause s (List.init colors (fun c -> S.lit (v node c) true))
    done;
    List.iter
      (fun (a, b) ->
        for c = 0 to colors - 1 do
          S.add_clause s [ S.lit (v a c) false; S.lit (v b c) false ]
        done)
      cycle;
    S.solve s
  in
  Alcotest.(check bool) "3-colorable" true (solve_coloring 3 = S.Sat);
  Alcotest.(check bool) "not 2-colorable" true (solve_coloring 2 = S.Unsat)

let test_assumption_basics () =
  let s = make_solver 2 in
  S.add_clause s [ S.lit 0 false; S.lit 1 true ];
  Alcotest.(check bool) "assume x0 -> sat with x1" true
    (S.solve ~assumptions:[ S.lit 0 true ] s = S.Sat && S.value s 1);
  Alcotest.(check bool) "conflicting assumptions unsat" true
    (S.solve ~assumptions:[ S.lit 1 false; S.lit 0 true ] s = S.Unsat);
  Alcotest.(check bool) "recovers" true (S.solve s = S.Sat)

let test_larger_random_unsat () =
  (* A dense random instance far above the sat threshold: should be unsat
     and exercise restarts/learning. 20 vars, clause ratio ~ 10. *)
  let st = Random.State.make [| 42 |] in
  let nvars = 20 in
  let cnf =
    List.init 200 (fun _ ->
        List.init 3 (fun _ -> (Random.State.int st nvars, Random.State.bool st)))
  in
  let _, result = solve_cnf nvars cnf in
  let expected = brute_force nvars cnf in
  Alcotest.(check bool) "matches brute force" true
    (match result with S.Sat -> expected | S.Unsat -> not expected)

let test_implication_chain () =
  (* x0 and a 300-long implication chain force every variable true; the
     model must reflect the full propagation. *)
  let n = 300 in
  let s = make_solver n in
  S.add_clause s [ S.lit 0 true ];
  for i = 0 to n - 2 do
    S.add_clause s [ S.lit i false; S.lit (i + 1) true ]
  done;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  for i = 0 to n - 1 do
    if not (S.value s i) then Alcotest.failf "x%d not propagated" i
  done;
  Alcotest.(check bool) "propagations counted" true (S.num_propagations s >= n - 1);
  (* Now close the chain into a contradiction. *)
  S.add_clause s [ S.lit (n - 1) false ];
  Alcotest.(check bool) "contradiction" true (S.solve s = S.Unsat)

let test_xor_chain_unsat () =
  (* Tseitin-encoded xor chain with contradictory endpoints: classic
     resolution-hard family at small size. y_i = y_{i-1} xor x_i. *)
  let n = 12 in
  let s = make_solver (2 * n + 1) in
  let y i = i and x i = n + i in
  let xor_clauses a b c =
    (* c = a xor b *)
    S.add_clause s [ S.lit c false; S.lit a true; S.lit b true ];
    S.add_clause s [ S.lit c false; S.lit a false; S.lit b false ];
    S.add_clause s [ S.lit c true; S.lit a false; S.lit b true ];
    S.add_clause s [ S.lit c true; S.lit a true; S.lit b false ]
  in
  for i = 1 to n - 1 do
    xor_clauses (y (i - 1)) (x i) (y i)
  done;
  (* Pin every x_i to false, y0 true, y_{n-1} false: unsat since the
     chain preserves y. *)
  for i = 1 to n - 1 do
    S.add_clause s [ S.lit (x i) false ]
  done;
  S.add_clause s [ S.lit (y 0) true ];
  S.add_clause s [ S.lit (y (n - 1)) false ];
  Alcotest.(check bool) "xor chain unsat" true (S.solve s = S.Unsat)

(* {1 Activation literals and per-query statistics — the incremental
   BMC protocol} *)

let test_activation_lifecycle () =
  (* One clause group per activation literal: dormant until assumed,
     selectable per query, permanently disabled by [retire], and
     physically deleted by [simplify]. *)
  let s = make_solver 1 in
  let a1 = S.new_act s in
  let a2 = S.new_act s in
  S.add_clause_act s ~act:a1 [ S.lit 0 true ];
  S.add_clause_act s ~act:a2 [ S.lit 0 false ];
  (* Dormant groups constrain nothing. *)
  Alcotest.(check bool) "dormant" true (S.solve s = S.Sat);
  (* Each group is selectable on its own... *)
  Alcotest.(check bool) "group 1" true
    (S.solve ~assumptions:[ a1 ] s = S.Sat && S.value s 0);
  Alcotest.(check bool) "group 2" true
    (S.solve ~assumptions:[ a2 ] s = S.Sat && not (S.value s 0));
  (* ...and the two together are contradictory. *)
  Alcotest.(check bool) "both groups" true
    (S.solve ~assumptions:[ a1; a2 ] s = S.Unsat);
  (* Retiring group 1 disables it even when its literal is assumed. *)
  S.retire s a1;
  Alcotest.(check bool) "retired group cannot be re-selected" true
    (S.solve ~assumptions:[ a1 ] s = S.Unsat);
  Alcotest.(check bool) "survivor unaffected" true
    (S.solve ~assumptions:[ a2 ] s = S.Sat && not (S.value s 0));
  (* [simplify] deletes the retired group; live clauses stay. *)
  let before = S.num_clauses s in
  S.simplify s;
  Alcotest.(check bool) "simplify shrinks the clause db" true
    (S.num_clauses s < before);
  (* A fresh group can take over the retired one's role. *)
  let a3 = S.new_act s in
  S.add_clause_act s ~act:a3 [ S.lit 0 true ];
  Alcotest.(check bool) "re-added group selectable" true
    (S.solve ~assumptions:[ a3 ] s = S.Sat && S.value s 0);
  Alcotest.(check bool) "re-added vs survivor unsat" true
    (S.solve ~assumptions:[ a3; a2 ] s = S.Unsat)

(* Pigeonhole clauses over a fresh or shared solver, guarded by [act]
   when given: the crafted hard instance for the reuse tests. *)
let add_php ?act s ~pigeons ~holes ~base =
  let v p h = base + (p * holes) + h in
  let add =
    match act with
    | Some act -> fun c -> S.add_clause_act s ~act c
    | None -> fun c -> S.add_clause s c
  in
  for p = 0 to pigeons - 1 do
    add (List.init holes (fun h -> S.lit (v p h) true))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        add [ S.lit (v p1 h) false; S.lit (v p2 h) false ]
      done
    done
  done

let test_learnt_survival () =
  (* The point of keeping one solver alive: clauses learnt by query N
     make query N+1 cheaper than solving it from scratch. Query the same
     guarded pigeonhole group twice on one instance; a fresh solver
     facing the identical question is the scratch baseline. *)
  let pigeons = 6 and holes = 5 in
  let persistent = make_solver (pigeons * holes) in
  let act = S.new_act persistent in
  add_php ~act persistent ~pigeons ~holes ~base:0;
  Alcotest.(check bool) "query 1 unsat" true
    (S.solve ~assumptions:[ act ] persistent = S.Unsat);
  let first = (S.last_solve persistent).S.s_conflicts in
  Alcotest.(check bool) "query 1 needed real search" true (first > 0);
  Alcotest.(check bool) "query 2 unsat" true
    (S.solve ~assumptions:[ act ] persistent = S.Unsat);
  let second = (S.last_solve persistent).S.s_conflicts in
  let scratch = make_solver (pigeons * holes) in
  add_php scratch ~pigeons ~holes ~base:0;
  Alcotest.(check bool) "scratch baseline unsat" true (S.solve scratch = S.Unsat);
  let baseline = (S.last_solve scratch).S.s_conflicts in
  if second >= baseline then
    Alcotest.failf
      "learnt clauses did not survive: query 2 took %d conflicts, scratch %d"
      second baseline

let test_last_solve_resets () =
  (* [last_solve] is a per-query delta — each solve re-bases it — while
     [stats] stays cumulative across the instance's lifetime. *)
  let s = make_solver 20 in
  add_php s ~pigeons:5 ~holes:4 ~base:0;
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let q1 = (S.last_solve s).S.s_conflicts in
  let total1 = (S.stats s).S.s_conflicts in
  Alcotest.(check int) "first query: delta equals cumulative" total1 q1;
  Alcotest.(check bool) "the instance was not free" true (q1 > 0);
  (* A root-level-unsat instance answers immediately: the delta must
     re-base to 0, not carry query 1's conflicts. *)
  Alcotest.(check bool) "still unsat" true (S.solve s = S.Unsat);
  let q2 = (S.last_solve s).S.s_conflicts in
  Alcotest.(check int) "second query: delta re-based" 0 q2;
  Alcotest.(check int) "cumulative untouched by re-basing" total1
    (S.stats s).S.s_conflicts;
  (* Size fields stay absolute in both views. *)
  Alcotest.(check int) "last_solve vars absolute" (S.num_vars s)
    (S.last_solve s).S.s_vars

(* {1 Golden search counters}

   The solver's search is a deterministic function of the clause and
   solve sequence, so its work counters pin the search itself: a change
   to the solver's storage that must not change the search (clause
   layout, watch lists, compaction) has to reproduce these numbers
   exactly. A change that alters the search on purpose (new heuristics,
   minimisation, clause tiers) re-records them and says so. *)

type counters = {
  g_results : string;  (** one letter per query: S = Sat, U = Unsat *)
  g_conflicts : int;
  g_decisions : int;
  g_propagations : int;
  g_restarts : int;
  g_reduces : int;
  g_learned : int;
}

let letter = function S.Sat -> "S" | S.Unsat -> "U"

let counters s results =
  let st = S.stats s in
  {
    g_results = results;
    g_conflicts = st.S.s_conflicts;
    g_decisions = st.S.s_decisions;
    g_propagations = st.S.s_propagations;
    g_restarts = st.S.s_restarts;
    g_reduces = st.S.s_reduces;
    g_learned = st.S.s_learned_total;
  }

let pp_counters c =
  Printf.sprintf
    "{ g_results = %S; g_conflicts = %d; g_decisions = %d; g_propagations = %d; \
     g_restarts = %d; g_reduces = %d; g_learned = %d }"
    c.g_results c.g_conflicts c.g_decisions c.g_propagations c.g_restarts
    c.g_reduces c.g_learned

let random_3sat ~seed ~nvars ~nclauses =
  let st = Random.State.make [| seed |] in
  List.init nclauses (fun _ ->
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let v = Random.State.int st nvars in
          if List.mem_assoc v acc then pick acc
          else pick ((v, Random.State.bool st) :: acc)
      in
      pick [])

let golden_php () =
  let s = make_solver 42 in
  add_php s ~pigeons:7 ~holes:6 ~base:0;
  counters s (letter (S.solve s))

let golden_random () =
  let nvars = 90 in
  let s = make_solver nvars in
  List.iter
    (fun c -> S.add_clause s (List.map (fun (v, b) -> S.lit v b) c))
    (random_3sat ~seed:7 ~nvars ~nclauses:384);
  counters s (letter (S.solve s))

(* An incremental session in the BMC protocol's shape: guarded groups
   queried under assumption subsets, retired, simplified away, and more
   groups added on top. The counters are cumulative over the session. *)
let golden_session () =
  let nvars = 60 in
  let s = make_solver nvars in
  let st = Random.State.make [| 2024 |] in
  let lits c = List.map (fun (v, b) -> S.lit v b) c in
  List.iter (fun c -> S.add_clause s (lits c)) (random_3sat ~seed:11 ~nvars ~nclauses:150);
  let live = ref [] in
  let results = Buffer.create 16 in
  let query assumptions =
    Buffer.add_string results (letter (S.solve ~assumptions s))
  in
  for round = 1 to 8 do
    let act = S.new_act s in
    List.iter
      (fun c -> S.add_clause_act s ~act (lits c))
      (random_3sat ~seed:(100 + round) ~nvars ~nclauses:90);
    live := act :: !live;
    let assumptions = List.filter (fun _ -> Random.State.bool st) !live in
    query (act :: assumptions);
    query [ act ];
    if round mod 2 = 0 then begin
      (match List.rev !live with
      | oldest :: rest ->
          S.retire s oldest;
          live := List.rev rest
      | [] -> ());
      S.simplify s
    end
  done;
  counters s (Buffer.contents results)

(* Large enough that the learnt database crosses its 1000-clause
   watermark, so [reduce_db] runs. *)
let golden_reduce () =
  let nvars = 150 in
  let s = make_solver nvars in
  List.iter
    (fun c -> S.add_clause s (List.map (fun (v, b) -> S.lit v b) c))
    (random_3sat ~seed:3 ~nvars ~nclauses:640);
  counters s (letter (S.solve s))

(* Recorded on the boxed-clause solver that preceded the flat clause
   arena; the arena rebuild reproduces them exactly. *)
let golden =
  [
    ( "pigeonhole 7/6",
      golden_php,
      { g_results = "U"; g_conflicts = 824; g_decisions = 1008; g_propagations = 10729;
        g_restarts = 6; g_reduces = 0; g_learned = 823 } );
    ( "random 3-sat 90/384",
      golden_random,
      { g_results = "U"; g_conflicts = 345; g_decisions = 424; g_propagations = 7035;
        g_restarts = 2; g_reduces = 0; g_learned = 344 } );
    ( "activation session",
      golden_session,
      { g_results = "SSSSUUSSSSUSUSUS"; g_conflicts = 364; g_decisions = 575;
        g_propagations = 6392; g_restarts = 2; g_reduces = 0; g_learned = 364 } );
    ( "random 3-sat 150/640 (reduces)",
      golden_reduce,
      { g_results = "U"; g_conflicts = 2741; g_decisions = 3293; g_propagations = 82471;
        g_restarts = 14; g_reduces = 2; g_learned = 2740 } );
  ]

let test_golden_counters () =
  List.iter
    (fun (name, run, expected) ->
      Alcotest.(check string) name (pp_counters expected) (pp_counters (run ())))
    golden

(* {1 Compaction fuzz}

   Random activation-literal sessions in the incremental-BMC shape:
   guarded groups over a few problem variables, queries under random
   assumption subsets, retirement, [simplify], and more clauses on top,
   checked against [brute_force] at every query. Pigeonhole groups over
   their own fresh variables (known unsat while assumed, inert
   otherwise) supply enough conflicts that the learnt database crosses
   its watermark, so [reduce_db] and [simplify] both run over clauses
   that earlier operations deleted. *)

type group = {
  act : S.lit;
  small : (int * bool) list list;  (* clauses over the problem variables *)
  php : bool;  (* a pigeonhole group: unsat whenever assumed *)
  mutable retired : bool;
}

(* [Some reduces] when every query agreed with brute force, [None] on
   the first disagreement. *)
let session seed =
  let st = Random.State.make [| seed |] in
  let nvars = 4 + Random.State.int st 7 in
  let s = make_solver nvars in
  let lits c = List.map (fun (v, b) -> S.lit v b) c in
  let base = ref (random_cnf st nvars (Random.State.int st 8)) in
  List.iter (fun c -> S.add_clause s (lits c)) !base;
  let groups = ref [] in
  let ok = ref true in
  let query ?with_group () =
    let assumed =
      List.filter
        (fun g ->
          Some g == with_group
          || Random.State.int st 4 < if g.retired then 1 else 2)
        !groups
    in
    let result = S.solve ~assumptions:(List.map (fun g -> g.act) assumed) s in
    let expected =
      (not (List.exists (fun g -> g.retired || g.php) assumed))
      && brute_force nvars (!base @ List.concat_map (fun g -> g.small) assumed)
    in
    let agrees =
      match result with
      | S.Unsat -> not expected
      | S.Sat ->
          expected
          && check_model s !base
          && List.for_all (fun g -> check_model s g.small) assumed
    in
    if not agrees then ok := false
  in
  let n_ops = 10 + Random.State.int st 15 in
  (* Two pigeonhole groups per session, one in each half, so the second
     one's conflicts land on a database the first one filled (or that a
     retire + simplify in between emptied again). *)
  let php_at = [ Random.State.int st (n_ops / 2); (n_ops / 2) + Random.State.int st (n_ops / 2) ] in
  for op = 0 to n_ops - 1 do
    match if List.mem op php_at then 2 else Random.State.int st 10 with
    | 0 | 1 ->
        let act = S.new_act s in
        let small = random_cnf st nvars (1 + Random.State.int st 6) in
        List.iter (fun c -> S.add_clause_act s ~act (lits c)) small;
        groups := { act; small; php = false; retired = false } :: !groups
    | 2 ->
        (* PHP(7,6) costs ~800 conflicts: two of them alive at once push
           the learnt database past reduce_db's 1000-clause watermark. *)
        let holes = 6 in
        let base_var = S.num_vars s in
        for _ = 1 to (holes + 1) * holes do
          ignore (S.new_var s)
        done;
        let act = S.new_act s in
        add_php ~act s ~pigeons:(holes + 1) ~holes ~base:base_var;
        let g = { act; small = []; php = true; retired = false } in
        groups := g :: !groups;
        query ~with_group:g ()
    | 3 -> (
        match List.filter (fun g -> not g.retired) !groups with
        | [] -> ()
        | live ->
            let g = List.nth live (Random.State.int st (List.length live)) in
            S.retire s g.act;
            g.retired <- true)
    | 4 -> S.simplify s
    | 5 ->
        let more = random_cnf st nvars 1 in
        List.iter (fun c -> S.add_clause s (lits c)) more;
        base := !base @ more
    | _ -> query ()
  done;
  query ();
  if !ok then Some (S.stats s).S.s_reduces else None

let prop_session seed = session seed <> None

let test_session_reaches_reduce () =
  (* The fuzz is only worth its cases if some sessions really reduce the
     learnt database after deleting clauses. *)
  let reduced = ref 0 in
  for seed = 1 to 10 do
    match session seed with
    | None -> Alcotest.failf "session %d disagrees with brute force" seed
    | Some r -> if r > 0 then incr reduced
  done;
  if !reduced = 0 then Alcotest.fail "no session ran reduce_db"

let qprop ?(count = 300) name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(make Gen.(int_bound 1_000_000)) f)

let () =
  Alcotest.run "sat"
    [
      ( "directed",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
          Alcotest.test_case "assumptions" `Quick test_assumption_basics;
          Alcotest.test_case "dense random" `Quick test_larger_random_unsat;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "xor chain" `Quick test_xor_chain_unsat;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "activation lifecycle" `Quick test_activation_lifecycle;
          Alcotest.test_case "learnt clauses survive queries" `Quick
            test_learnt_survival;
          Alcotest.test_case "last_solve re-bases per query" `Quick
            test_last_solve_resets;
          Alcotest.test_case "search counters" `Quick test_golden_counters;
        ] );
      ( "properties",
        [
          qprop "random cnf vs brute force" prop_random_cnf;
          qprop "assumptions vs unit clauses" prop_assumptions;
          qprop "incremental prefixes" prop_incremental;
          qprop ~count:40 "activation sessions vs brute force" prop_session;
          Alcotest.test_case "activation sessions reach reduce_db" `Quick
            test_session_reaches_reduce;
        ] );
    ]
