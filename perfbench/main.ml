(* perfbench: time to verdict on the default product path.

   One closed-loop client, one verdict at a time, on the -O2 incremental
   symmetric sequential engine. Three workloads:

   - cex_hunt: every CEX row of Table 1 plus the five CEX stages of the
     Table 2 Vscale walk, each a fresh FT through [Autocc.Ft.check];
   - deep_proof: the V bounded proof, the C0+ per-assertion proof and
     the AES k-induction proof;
   - campaign_rerun: [Explain.Campaign.run] over the four bench-campaign
     entries against an on-disk verdict cache, one cold pass (fresh
     store) then [warm_per_cold] warm passes (the store reopened).

   Every verdict is checked against the hand-written [expected] table.
   With [--trace 1], passes alternate untraced / traced; traced passes
   additionally run split calls into single layers (preoptimize + blast,
   validate, canon, cluster) outside the timed verdict intervals, and the
   per-layer metrics are taken from those spans and from the counters the
   public entry points return. The in-program Obs spans stay off.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. See README.md. *)

module V = Duts.Vscale
module M = Duts.Maple
module A = Duts.Aes
module C = Duts.Cva6lite
module Camp = Explain.Campaign

let now = Unix.gettimeofday

(* {1 Statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest integer percentile whose nearest-rank value has at least
   ten samples above it: [Some (p, value)], or [None] below 11 samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank p = ((p * n) + 99) / 100 in
  let rec find p =
    if p <= 0 then None
    else if rank p >= 1 && n - rank p >= 10 then Some (p, a.(rank p - 1))
    else find (p - 1)
  in
  find 99

let ratio a b = if b > 0. then a /. b else 0.

(* {1 Expected answers} *)

type answer =
  | Cex_depth of int  (** counterexample of [n] cycles ([cex_depth + 1]) *)
  | Bounded of int  (** bounded proof, [depth_reached = n] *)
  | Each_bounded of int  (** every assertion bounded, [depth_reached = n] *)
  | Proved of int  (** k-induction proof at [k = n] *)
  | Channels of int  (** campaign entry clustered into [n] channels *)

let answer_to_string = function
  | Cex_depth n -> Printf.sprintf "CEX depth %d" n
  | Bounded n -> Printf.sprintf "bounded proof to %d" n
  | Each_bounded n -> Printf.sprintf "every assertion bounded to %d" n
  | Proved k -> Printf.sprintf "proved k=%d" k
  | Channels n -> Printf.sprintf "%d channel(s)" n

(* Deliberately wrong variant of an answer, for the self-check. *)
let corrupt = function
  | Cex_depth n -> Cex_depth (n + 1)
  | Bounded n -> Bounded (n + 1)
  | Each_bounded n -> Each_bounded (n + 1)
  | Proved k -> Proved (k + 1)
  | Channels n -> Channels (n + 1)

(* The hand-written expected answer per row id. *)
let expected =
  [
    ("V5", Cex_depth 5);
    ("C1", Cex_depth 9);
    ("C2", Cex_depth 10);
    ("C3", Cex_depth 8);
    ("M2", Cex_depth 6);
    ("M3", Cex_depth 6);
    ("A1", Cex_depth 9);
    ("fence_plain", Cex_depth 7);
    ("fence_full", Cex_depth 7);
    ("M1", Cex_depth 7);
    ("T2.V1", Cex_depth 5);
    ("T2.V2", Cex_depth 5);
    ("T2.V3", Cex_depth 5);
    ("T2.V4", Cex_depth 5);
    ("T2.V5", Cex_depth 5);
    ("V", Bounded 9);
    ("C0+", Each_bounded 13);
    ("AES", Proved 8);
    ("vscale_arch_pipeline", Channels 3);
    ("maple_m3", Channels 1);
    ("divider", Channels 2);
    ("maple_fixed", Channels 0);
  ]

(* {1 Bench-side spans and layer tallies} *)

(* Spans recorded around one timed verdict: FT generation and the
   engine's public [progress] callback. Installed in untraced runs too,
   so the timed code is identical in both modes. *)
type probe = {
  mutable ft_s : float;
  mutable nodes : int;
  mutable ticks : float list;  (** progress timestamps, newest first *)
}

let new_probe () = { ft_s = 0.; nodes = 0; ticks = [] }

let generate probe mk =
  let t = now () in
  let ft = mk () in
  probe.ft_s <- probe.ft_s +. (now () -. t);
  probe.nodes <- probe.nodes + Rtl.Circuit.num_nodes ft.Autocc.Ft.wrapper;
  ft

let tick probe (_ : int) = probe.ticks <- now () :: probe.ticks

(* Durations between consecutive progress ticks, the last one running
   to [t_end]: one per depth explored. *)
let depth_steps ticks ~t_end =
  let rec go later acc = function
    | [] -> acc
    | t :: rest -> go t ((later -. t) :: acc) rest
  in
  go t_end [] ticks

let tally : (string, float) Hashtbl.t = Hashtbl.create 64
let steps = ref []

let add k v =
  Hashtbl.replace tally k (v +. Option.value ~default:0. (Hashtbl.find_opt tally k))

let addi k v = add k (float_of_int v)
let get k = Option.value ~default:0. (Hashtbl.find_opt tally k)

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* {1 Verdict views} *)

type view = {
  answer : answer option;  (** [None]: inconclusive *)
  stats : Bmc.stats option;
  cexs : Bmc.cex list;
}

let merge_stats (a : Bmc.stats) (b : Bmc.stats) =
  {
    Bmc.depth_reached = max a.Bmc.depth_reached b.Bmc.depth_reached;
    solve_time = a.Bmc.solve_time +. b.Bmc.solve_time;
    vars = max a.Bmc.vars b.Bmc.vars;
    clauses = max a.Bmc.clauses b.Bmc.clauses;
    conflicts = a.Bmc.conflicts + b.Bmc.conflicts;
    decisions = a.Bmc.decisions + b.Bmc.decisions;
    propagations = a.Bmc.propagations + b.Bmc.propagations;
    restarts = a.Bmc.restarts + b.Bmc.restarts;
    (* check_each shares one optimization across its assertions *)
    opt = (match a.Bmc.opt with Some _ -> a.Bmc.opt | None -> b.Bmc.opt);
  }

let view_check = function
  | Bmc.Cex (cex, st) ->
      { answer = Some (Cex_depth (cex.Bmc.cex_depth + 1)); stats = Some st; cexs = [ cex ] }
  | Bmc.Bounded_proof st ->
      { answer = Some (Bounded st.Bmc.depth_reached); stats = Some st; cexs = [] }
  | Bmc.Unknown (_, st) -> { answer = None; stats = Some st; cexs = [] }

(* Per-assertion outcomes: conclusive only if every assertion is; a
   uniform bounded depth is the proof, any CEX the shallowest one. *)
let view_each outcomes =
  let views = List.map (fun (_, o) -> view_check o) outcomes in
  let stats =
    match List.filter_map (fun v -> v.stats) views with
    | [] -> None
    | s :: rest -> Some (List.fold_left merge_stats s rest)
  in
  let cexs = List.concat_map (fun v -> v.cexs) views in
  let answers = List.map (fun v -> v.answer) views in
  let answer =
    if List.mem None answers || answers = [] then None
    else
      match cexs with
      | c :: rest ->
          Some
            (Cex_depth
               (1 + List.fold_left (fun m c -> min m c.Bmc.cex_depth) c.Bmc.cex_depth rest))
      | [] -> (
          match List.sort_uniq compare answers with
          | [ Some (Bounded d) ] -> Some (Each_bounded d)
          | _ -> None)
  in
  { answer; stats; cexs }

let view_prove = function
  | Bmc.Proved (k, st) -> { answer = Some (Proved k); stats = Some st; cexs = [] }
  | Bmc.Refuted (cex, st) ->
      { answer = Some (Cex_depth (cex.Bmc.cex_depth + 1)); stats = Some st; cexs = [ cex ] }
  | Bmc.Unknown (_, st) -> { answer = None; stats = Some st; cexs = [] }

(* {1 Traced-only split calls into single layers}

   Run outside the timed verdict intervals, on the verdict's own FT. *)

(* cnf: template build plus unroll to [depth] on the preoptimize output. *)
let split_blast (ft : Autocc.Ft.t) ~depth =
  let c, _, sym, _ =
    Bmc.preoptimize ~opt:Opt.O2 ~sym:ft.Autocc.Ft.sym ft.Autocc.Ft.wrapper
      ft.Autocc.Ft.property
  in
  let (), dt =
    timed (fun () ->
        let b = Cnf.Blast.create ~mode:Cnf.Blast.Template ~sym (Sat.Solver.create ()) c in
        for _ = 0 to depth do
          Cnf.Blast.unroll_cycle b
        done)
  in
  add "cnf.blast_s" dt

(* sim: replay each returned CEX on the interpreter. *)
let split_validate (ft : Autocc.Ft.t) cexs =
  List.iter
    (fun (cex : Bmc.cex) ->
      let _, dt =
        timed (fun () ->
            Bmc.validate cex.Bmc.cex_circuit ft.Autocc.Ft.property cex.Bmc.cex_inputs
              cex.Bmc.cex_depth)
      in
      add "sim.replay_s" dt;
      addi "sim.replays" 1)
    cexs

(* cache: canonical hash of every single-assertion cone. *)
let split_canon (ft : Autocc.Ft.t) =
  let p = ft.Autocc.Ft.property in
  List.iter
    (fun (_, a) ->
      let _, dt = timed (fun () -> Cache.canon ~assumes:p.Bmc.assumes ~asserts:[ a ]) in
      add "cache.canon_s" dt)
    p.Bmc.asserts

(* explain: slice + minimize + cluster the CEX pool. *)
let split_cluster (ft : Autocc.Ft.t) cexs =
  if cexs = [] then []
  else begin
    let channels, dt = timed (fun () -> Explain.cluster ft cexs) in
    add "explain.cluster_s" dt;
    channels
  end

let record_channels (channels : Explain.channel list) =
  addi "explain.channels" (List.length channels);
  List.iter
    (fun (ch : Explain.channel) ->
      addi "explain.min_iterations" ch.Explain.ch_min.Explain.mn_iterations)
    channels

(* Engine counters of one verdict into the tallies. *)
let record_stats ~wall ~core (st : Bmc.stats) =
  let opt_time =
    match st.Bmc.opt with
    | None -> 0.
    | Some o ->
        add "opt.time_s" o.Opt.o_time;
        addi "opt.nodes_before" o.Opt.o_nodes_before;
        addi "opt.nodes_after" o.Opt.o_nodes_after;
        addi "opt.sweep_queries" o.Opt.o_sat_queries;
        addi "opt.sweep_candidates" o.Opt.o_sweep_candidates;
        addi "opt.sweep_merged" o.Opt.o_sweep_merged;
        o.Opt.o_time
  in
  addi "cnf.vars" st.Bmc.vars;
  addi "cnf.clauses" st.Bmc.clauses;
  add "sat.solve_s" st.Bmc.solve_time;
  addi "sat.propagations" st.Bmc.propagations;
  addi "sat.conflicts" st.Bmc.conflicts;
  addi "sat.decisions" st.Bmc.decisions;
  addi "sat.restarts" st.Bmc.restarts;
  add "bmc.other_s" (wall -. st.Bmc.solve_time -. opt_time -. core)

(* {1 Rows} *)

(* One timed verdict: [exec] runs from FT generation to the verdict and
   returns the view plus the FT the traced splits need; [depth] is the
   unroll depth of the cnf split. *)
type row = {
  id : string;
  exec : probe -> view * Autocc.Ft.t;
  depth : view -> int;
}

let verdict_depth max_depth v =
  match v.answer with Some (Cex_depth n) -> n - 1 | _ -> max_depth

let check_row id mk ~max_depth =
  {
    id;
    exec =
      (fun p ->
        let ft = generate p mk in
        (view_check (Autocc.Ft.check ~max_depth ~progress:(tick p) ft), ft));
    depth = verdict_depth max_depth;
  }

let maple_ft ?(require_outbuf_empty = true) dut () =
  Autocc.Ft.generate ~threshold:2 ~flush_done:(M.flush_done ~require_outbuf_empty ()) dut

let cva6_ft dut () = Autocc.Ft.generate ~threshold:2 ~flush_done:(C.flush_done ()) dut

let cex_hunt_rows () =
  let vscale = V.create () in
  let cva6 fixes = C.create ~config:fixes () in
  let c1 = cva6 (C.with_fixes ~fix_c1:false C.Microreset)
  and c2 = cva6 (C.with_fixes ~fix_c2:false C.Microreset)
  and c3 = cva6 (C.with_fixes ~fix_c3:false C.Microreset)
  and plain = cva6 C.plain_fence
  and full = cva6 C.full_flush in
  let m2 = M.create ~config:{ M.fix_m2 = false; fix_m3 = true } ()
  and m3 = M.create ~config:{ M.fix_m2 = true; fix_m3 = false } ()
  and mfixed = M.create ~config:M.fixed () in
  let aes = A.create () in
  let stage s () = V.ft_for_stage s vscale in
  [
    check_row "V5" (stage V.Arch_pipeline) ~max_depth:8;
    check_row "C1" (cva6_ft c1) ~max_depth:15;
    check_row "C2" (cva6_ft c2) ~max_depth:11;
    check_row "C3" (cva6_ft c3) ~max_depth:11;
    check_row "M2" (maple_ft m2) ~max_depth:10;
    check_row "M3" (maple_ft m3) ~max_depth:10;
    check_row "A1" (fun () -> Autocc.Ft.generate ~threshold:2 aes) ~max_depth:12;
    check_row "fence_plain" (cva6_ft plain) ~max_depth:10;
    check_row "fence_full" (cva6_ft full) ~max_depth:10;
    check_row "M1" (maple_ft ~require_outbuf_empty:false mfixed) ~max_depth:10;
    check_row "T2.V1" (stage V.Default) ~max_depth:8;
    check_row "T2.V2" (stage V.Arch_regfile) ~max_depth:8;
    check_row "T2.V3" (stage V.Blackbox_csr) ~max_depth:8;
    check_row "T2.V4" (stage V.Arch_pc) ~max_depth:8;
    check_row "T2.V5" (stage V.Arch_pipeline) ~max_depth:8;
  ]

let deep_proof_rows () =
  let vscale = V.create () in
  let c0 = C.create ~config:C.microreset_fixed () in
  let aes = A.create () in
  [
    check_row "V" (fun () -> V.ft_for_stage V.Arch_irq vscale) ~max_depth:9;
    {
      id = "C0+";
      exec =
        (fun p ->
          let ft = generate p (cva6_ft c0) in
          ( view_each
              (Bmc.check_each ~max_depth:13 ~opt:Opt.O2 ~incremental:true
                 ~sym:ft.Autocc.Ft.sym ~progress:(tick p) ft.Autocc.Ft.wrapper
                 ft.Autocc.Ft.property),
            ft ));
      depth = (fun _ -> 13);
    };
    {
      id = "AES";
      exec =
        (fun p ->
          let ft =
            generate p (fun () ->
                Autocc.Ft.generate ~threshold:2 ~flush_done:(A.flush_done_idle ()) aes)
          in
          (view_prove (Autocc.Ft.prove ~max_depth:20 ~progress:(tick p) ft), ft));
      depth = (fun v -> match v.answer with Some (Proved k) -> k | _ -> 20);
    };
  ]

(* {1 Samples and the closed loop} *)

type sample = { s_wall : float; s_ok : bool; s_traced : bool }

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  passes : int option;  (** a fixed pass count instead of [seconds] *)
  only : string list option;  (** restrict to these row ids *)
  corrupt_ids : string list;  (** rows whose expected answer is falsified *)
  work : string;  (** scratch directory for the campaign stores *)
  counters : string option;  (** per-verdict counter JSONL output *)
}

let samples = ref []
let counter_lines = ref []
let split_s = ref 0.

let expect cfg id =
  let e = List.assoc id expected in
  if List.mem id cfg.corrupt_ids then corrupt e else e

(* Judge one verdict against its expected answer and keep the sample.
   [got] is [Error msg] when the verdict raised, [Ok None] when it was
   inconclusive. *)
let judge cfg ~id ~label ~wall ~traced got =
  let want = expect cfg id in
  let ok =
    match got with
    | Ok (Some a) -> a = want
    | Ok None | Error _ -> false
  in
  Printf.printf "verdict %-36s %10.4f s  %s%s\n%!" label wall
    (match got with
    | Ok (Some a) -> answer_to_string a
    | Ok None -> "unknown"
    | Error msg -> "exception " ^ msg)
    (if ok then "" else "  MISMATCH, expected " ^ answer_to_string want);
  samples := { s_wall = wall; s_ok = ok; s_traced = traced } :: !samples

let record_counters ~label ~wall (st : Bmc.stats) =
  let sweep = match st.Bmc.opt with Some o -> o.Opt.o_sat_queries | None -> 0 in
  counter_lines :=
    Printf.sprintf
      "{\"verdict\": %S, \"sat.propagations\": %d, \"sat.conflicts\": %d, \"cnf.vars\": \
       %d, \"cnf.clauses\": %d, \"opt.sweep_queries\": %d, \"wall_s\": %.6f, \"solve_s\": %.6f}"
      label st.Bmc.propagations st.Bmc.conflicts st.Bmc.vars st.Bmc.clauses sweep wall
      st.Bmc.solve_time
    :: !counter_lines

let permute rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Runs [f] outside the timed intervals, charging it to the trace
   overhead. *)
let split f =
  let (), dt = timed f in
  split_s := !split_s +. dt

let run_row cfg ~pass ~traced (r : row) =
  let label = Printf.sprintf "p%d/%s" pass r.id in
  let p = new_probe () in
  let t0 = now () in
  let result = try Ok (r.exec p) with e -> Error (Printexc.to_string e) in
  let t_end = now () in
  let wall = t_end -. t0 in
  judge cfg ~id:r.id ~label ~wall ~traced (Result.map (fun (v, _) -> v.answer) result);
  match result with
  | Error _ -> ()
  | Ok (v, ft) ->
      Option.iter (record_counters ~label ~wall) v.stats;
      if traced then
        split (fun () ->
            addi "verdicts" 1;
            add "wall_s" wall;
            add "core.ft_generate_s" p.ft_s;
            addi "core.wrapper_nodes" p.nodes;
            steps := depth_steps p.ticks ~t_end @ !steps;
            Option.iter
              (fun st ->
                record_stats ~wall ~core:p.ft_s st;
                addi "bmc.depth_reached" st.Bmc.depth_reached)
              v.stats;
            split_blast ft ~depth:(r.depth v);
            split_validate ft v.cexs;
            split_canon ft;
            addi "explain.raw_cexs" (List.length v.cexs);
            record_channels (split_cluster ft v.cexs))

(* {1 campaign_rerun} *)

(* Warm passes per cold pass: cold samples form the tail, warm samples
   the median. *)
let warm_per_cold = 3

type entry = { en : Camp.entry; mk_ft : unit -> Autocc.Ft.t }

let campaign_entries () =
  let vscale = V.create () in
  let m3 = M.create ~config:{ M.fix_m2 = true; fix_m3 = false } ()
  and mfixed = M.create ~config:M.fixed () in
  let divider = Duts.Divider.create () in
  let entry label dut mk_ft max_depth =
    { en = { Camp.e_label = label; e_dut = dut; e_ft = mk_ft; e_max_depth = max_depth }; mk_ft }
  in
  [
    entry "vscale_arch_pipeline" "vscale" (fun () -> V.ft_for_stage V.Arch_pipeline vscale) 8;
    entry "maple_m3" "maple" (maple_ft m3) 10;
    entry "divider" "divider" (fun () -> Autocc.Ft.generate ~threshold:2 divider) 12;
    entry "maple_fixed" "maple" (maple_ft mfixed) 8;
  ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let open_times = ref []

let record_cache_delta (a : Cache.stats option) (b : Cache.stats) =
  let before f = match a with Some a -> f a | None -> 0 in
  addi "cache.hits" (b.Cache.hits - before (fun s -> s.Cache.hits));
  addi "cache.misses" (b.Cache.misses - before (fun s -> s.Cache.misses));
  addi "cache.stores" (b.Cache.stores - before (fun s -> s.Cache.stores));
  addi "cache.rejects" (b.Cache.rejects - before (fun s -> s.Cache.rejects))

(* Traced-only split of one campaign sample. [Campaign.run] returns no
   engine counters, so a cold sample's SAT work is re-run here without a
   cache (the same -O2 incremental symmetric [check_each] the campaign
   runs), which yields its counters, depth steps and CEX pool. A warm
   sample does no SAT: its pool comes back from the store as hits. *)
let campaign_split ~label ~cold ~cache ~wall ~core (e : entry) =
  let ft = e.mk_ft () in
  let p = new_probe () in
  let max_depth = e.en.Camp.e_max_depth in
  let sweep cache =
    view_each
      (Bmc.check_each ~max_depth ~opt:Opt.O2 ~incremental:true ~sym:ft.Autocc.Ft.sym
         ~progress:(tick p) ?cache ft.Autocc.Ft.wrapper ft.Autocc.Ft.property)
  in
  let v =
    if cold then begin
      let v = sweep None in
      steps := depth_steps p.ticks ~t_end:(now ()) @ !steps;
      Option.iter (record_counters ~label ~wall) v.stats;
      Option.iter (record_stats ~wall ~core) v.stats;
      split_blast ft ~depth:max_depth;
      v
    end
    else sweep (Some cache)
  in
  split_validate ft v.cexs;
  split_canon ft;
  ignore (split_cluster ft v.cexs : Explain.channel list)

let campaign_sample cfg ~label ~traced ~cold ~dir ~cache (e : entry) =
  let p = new_probe () in
  let entry = { e.en with Camp.e_ft = (fun () -> generate p e.mk_ft) } in
  let before = Option.map Cache.stats !cache in
  let t0 = now () in
  let result =
    try
      let c =
        match !cache with
        | Some c -> c
        | None ->
            (* the store is opened once per pass, inside its first sample *)
            let c, dt = timed (fun () -> Cache.create ~dir ()) in
            open_times := dt :: !open_times;
            cache := Some c;
            c
      in
      match (Camp.run ~opt:Opt.O2 ~cache:c [ entry ]).Camp.c_results with
      | [ r ] -> Ok (r, c)
      | _ -> Error "expected one entry result"
    with ex -> Error (Printexc.to_string ex)
  in
  let wall = now () -. t0 in
  judge cfg ~id:e.en.Camp.e_label ~label ~wall ~traced
    (Result.map
       (fun ((r : Camp.entry_result), _) ->
         if r.Camp.r_status = `Done && r.Camp.r_unknowns = 0 then
           Some (Channels (List.length r.Camp.r_channels))
         else None)
       result);
  match result with
  | Ok (r, c) when traced ->
      split (fun () ->
          addi "verdicts" 1;
          add "wall_s" wall;
          record_cache_delta before (Cache.stats c);
          add "core.ft_generate_s" p.ft_s;
          addi "core.wrapper_nodes" p.nodes;
          (* a warm sample does no SAT and no opt: the rest is bmc *)
          if not cold then add "bmc.other_s" (wall -. p.ft_s);
          addi "bmc.depth_reached" r.Camp.r_depth;
          addi "explain.raw_cexs" r.Camp.r_raw_cexs;
          record_channels r.Camp.r_channels;
          campaign_split ~label ~cold ~cache:c ~wall ~core:p.ft_s e)
  | _ -> ()

(* One cycle: a cold pass into a fresh store, then [warm_per_cold] warm
   passes, each reopening the store from disk. Returns the seconds the
   passes took; removing the store before and after is not timed. *)
let campaign_cycle cfg ~pass ~traced entries rng =
  let dir = Filename.concat cfg.work (Printf.sprintf "cache-%d" pass) in
  rm_rf dir;
  let (), wall =
    timed (fun () ->
        for k = 0 to warm_per_cold do
          let cold = k = 0 in
          let cache = ref None in
          List.iter
            (fun e ->
              let label =
                Printf.sprintf "p%d.%d/%s/%s" pass k (if cold then "cold" else "warm")
                  e.en.Camp.e_label
              in
              campaign_sample cfg ~label ~traced ~cold ~dir ~cache e)
            (permute rng entries)
        done)
  in
  rm_rf dir;
  wall

(* {1 Workloads} *)

let keep cfg id = match cfg.only with None -> true | Some ids -> List.mem id ids

(* Runs one pass and returns the seconds its verdict loop took. *)
type runner = pass:int -> traced:bool -> Random.State.t -> float

(* Set-up: DUT construction and the scratch directory. *)
let setup cfg : runner =
  let rows mk =
    let rows = List.filter (fun r -> keep cfg r.id) (mk ()) in
    fun ~pass ~traced rng ->
      let order = permute rng rows in
      snd (timed (fun () -> List.iter (run_row cfg ~pass ~traced) order))
  in
  match cfg.workload with
  | "cex_hunt" -> rows cex_hunt_rows
  | "deep_proof" -> rows deep_proof_rows
  | "campaign_rerun" ->
      if not (Sys.file_exists cfg.work) then Sys.mkdir cfg.work 0o755;
      let entries = List.filter (fun e -> keep cfg e.en.Camp.e_label) (campaign_entries ()) in
      fun ~pass ~traced rng -> campaign_cycle cfg ~pass ~traced entries rng
  | w -> failwith ("unknown workload " ^ w)

(* Timed set-ups per pass; see [time_setups]. *)
let setup_reps = 21

(* {1 Output} *)

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
      | _ -> find ()
    in
    let v = try find () with End_of_file -> 0. in
    close_in ic;
    v
  with Sys_error _ -> 0.

(* Total and steal jiffies of all CPUs from /proc/stat: the share of
   CPU time the host took away during the passes is printed with the
   results, to tell a disturbed run from a slow program. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = input_line ic in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
        let ticks = List.map int_of_string fields in
        let steal = match List.nth_opt ticks 7 with Some t -> t | None -> 0 in
        Some (List.fold_left ( + ) 0 ticks, steal)
    | _ -> None
  with Sys_error _ | End_of_file | Failure _ -> None

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric (name, value, unit, note) =
  Printf.printf "metric %-26s %14.6g %-6s %s\n" name value unit note

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, value, unit, _) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
       ms)

(* The end-to-end metrics of the JSON result, as listed in
   BENCHMARK.json. [verdict_tail_s] and [error_rate] are printed but not
   gated: on cex_hunt the tail's spread between runs exceeds any
   admissible bound (see README.md), and the error rate is 0 on correct
   code. *)
let gated_end_to_end = [ "verdicts_per_s"; "verdict_p50_s"; "setup_s"; "peak_rss_mb" ]

let end_to_end ~setup_times ~pass_walls ~pass_peaks ss =
  let walls = List.map (fun s -> s.s_wall) ss in
  let n = List.length ss in
  let failed = List.length (List.filter (fun s -> not s.s_ok) ss) in
  (* per-pass rates: (verdicts, seconds) of each untraced pass *)
  let wall = List.fold_left (fun acc (_, w) -> acc +. w) 0. pass_walls in
  let rates = List.map (fun (k, w) -> ratio (float_of_int k) w) pass_walls in
  let tail_metric =
    match tail walls with
    | Some (p, v) ->
        [ ("verdict_tail_s", v, "s", Printf.sprintf "(p%d, n=%d, 10 samples beyond)" p n) ]
    | None -> []
  in
  let ms =
    [
      ( "verdicts_per_s",
        median rates,
        "1/s",
        Printf.sprintf "(median of %d passes; n=%d verdicts in %.2f s)" (List.length rates) n
          wall );
      ("verdict_p50_s", median walls, "s", Printf.sprintf "(n=%d)" n);
    ]
    @ tail_metric
    @ [
        ( "setup_s",
          median setup_times,
          "s",
          Printf.sprintf "(median of %d set-ups)" (List.length setup_times) );
        ( "peak_rss_mb",
          median pass_peaks,
          "MB",
          Printf.sprintf "(median over %d pass processes of their VmHWM)" (List.length pass_peaks)
        );
        ( "error_rate",
          ratio (float_of_int failed) (float_of_int n),
          "ratio",
          Printf.sprintf "(%d of %d verdicts)" failed n );
      ]
  in
  if tail_metric = [] then
    Printf.printf "metric %-26s %14s %-6s (n=%d: fewer than 11 samples)\n" "verdict_tail_s"
      "n/a" "s" n;
  ms

let per_layer ~traced ~untraced =
  let n = get "verdicts" in
  let mean k = ratio (get k) n in
  let step_tail =
    match tail !steps with
    | Some (p, v) -> (v, Printf.sprintf "(p%d, n=%d)" p (List.length !steps))
    | None ->
        ( Array.fold_left max 0. (sorted !steps),
          Printf.sprintf "(max, n=%d)" (List.length !steps) )
  in
  let p50 ss = median (List.map (fun s -> s.s_wall) ss) in
  let per = "(mean per verdict)" in
  [
    ("core.ft_generate_s", mean "core.ft_generate_s", "s", per);
    ("core.wrapper_nodes", mean "core.wrapper_nodes", "count", per);
    ("opt.time_s", mean "opt.time_s", "s", per);
    ("opt.nodes_before", mean "opt.nodes_before", "count", per);
    ("opt.nodes_after", mean "opt.nodes_after", "count", per);
    ("opt.sweep_queries", mean "opt.sweep_queries", "count", per);
    ("opt.sweep_candidates", mean "opt.sweep_candidates", "count", per);
    ("opt.sweep_merged", mean "opt.sweep_merged", "count", per);
    ( "opt.sweep_merge_ratio",
      ratio (get "opt.sweep_merged") (get "opt.sweep_candidates"),
      "ratio",
      "(merged / candidates)" );
    ("cnf.vars", mean "cnf.vars", "count", per);
    ("cnf.clauses", mean "cnf.clauses", "count", per);
    ("cnf.blast_s", mean "cnf.blast_s", "s", per);
    ("sat.solve_s", mean "sat.solve_s", "s", per);
    ("sat.share", ratio (get "sat.solve_s") (get "wall_s"), "ratio", "(solve / verdict wall)");
    ("sat.propagations", mean "sat.propagations", "count", per);
    ("sat.conflicts", mean "sat.conflicts", "count", per);
    ("sat.decisions", mean "sat.decisions", "count", per);
    ("sat.restarts", mean "sat.restarts", "count", per);
    ( "sat.props_per_s",
      ratio (get "sat.propagations") (get "sat.solve_s"),
      "1/s",
      "(propagations / solve time)" );
    ( "sat.conflicts_per_s",
      ratio (get "sat.conflicts") (get "sat.solve_s"),
      "1/s",
      "(conflicts / solve time)" );
    ( "bmc.depth_step_p50_s",
      median !steps,
      "s",
      Printf.sprintf "(n=%d depth steps)" (List.length !steps) );
    ("bmc.depth_step_tail_s", fst step_tail, "s", snd step_tail);
    ("bmc.other_s", mean "bmc.other_s", "s", "(verdict wall - sat - opt - core, mean)");
    ("bmc.depth_reached", mean "bmc.depth_reached", "count", per);
    ("sim.replay_s", mean "sim.replay_s", "s", per);
    ("sim.replays", mean "sim.replays", "count", per);
    ("cache.canon_s", mean "cache.canon_s", "s", per);
    ("cache.hits", mean "cache.hits", "count", per);
    ("cache.misses", mean "cache.misses", "count", per);
    ("cache.stores", mean "cache.stores", "count", per);
    ("cache.rejects", mean "cache.rejects", "count", per);
    ( "cache.hit_ratio",
      ratio (get "cache.hits") (get "cache.hits" +. get "cache.misses"),
      "ratio",
      "(hits / lookups)" );
    ("explain.cluster_s", mean "explain.cluster_s", "s", per);
    ("explain.min_iterations", mean "explain.min_iterations", "count", per);
    ("explain.raw_cexs", mean "explain.raw_cexs", "count", per);
    ("explain.channels", mean "explain.channels", "count", per);
    ( "obs.overhead_p50_s",
      p50 traced -. p50 untraced,
      "s",
      Printf.sprintf "(traced %.6g s n=%d - untraced %.6g s n=%d)" (p50 traced)
        (List.length traced) (p50 untraced) (List.length untraced) );
    ("obs.split_s", ratio !split_s n, "s", "(traced-only split calls, mean per verdict)");
  ]

(* {1 Child processes}

   Each pass runs in a forked child of the set-up process, so every pass
   starts from the same heap and its peak RSS is its own: OCaml does
   not hand heap back to the system, and one heavy verdict would
   otherwise raise the peak of every later pass. The child sends back
   what the pass recorded. *)

(* [f ()] in a forked child; [None] if the child failed. *)
let in_child (type a) (f : unit -> a) : a option =
  flush stdout;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result = f () in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc result [];
      close_out oc;
      exit 0
  | child -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result = try Some (Marshal.from_channel ic : a) with End_of_file -> None in
      close_in ic;
      match (result, snd (Unix.waitpid [] child)) with
      | Some r, Unix.WEXITED 0 -> Some r
      | _ -> None)

type pass_result = {
  r_samples : sample list;  (** newest first *)
  r_tally : (string * float) list;
  r_steps : float list;
  r_counters : string list;
  r_split_s : float;
  r_open_times : float list;
  r_wall : float;  (** seconds of the pass's verdict loop *)
  r_peak : float;  (** VmHWM of the pass process, MB *)
}

(* The order of the verdicts in a pass depends on the seed and the pass
   number only. *)
let pass_rng cfg pass = Random.State.make [| cfg.seed; pass |]

let run_pass ~pass run =
  let pass_child () =
    samples := [];
    Hashtbl.reset tally;
    steps := [];
    counter_lines := [];
    split_s := 0.;
    open_times := [];
    let wall = run () in
    {
      r_samples = !samples;
      r_tally = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [];
      r_steps = !steps;
      r_counters = !counter_lines;
      r_split_s = !split_s;
      r_open_times = !open_times;
      r_wall = wall;
      r_peak = peak_rss_mb ();
    }
  in
  match in_child pass_child with
  | Some r ->
      samples := r.r_samples @ !samples;
      List.iter (fun (k, v) -> add k v) r.r_tally;
      steps := r.r_steps @ !steps;
      counter_lines := r.r_counters @ !counter_lines;
      split_s := !split_s +. r.r_split_s;
      open_times := r.r_open_times @ !open_times;
      r
  | None ->
      Printf.printf "pass %d: the pass process failed\n%!" pass;
      exit 1

(* A set-up takes 0.1–2 ms, and the same one runs up to 1.6 times slower
   in one process than in another. Each pass is therefore preceded by
   [setup_reps] set-ups timed in a child process of their own, which
   also keeps them out of the heap the passes start from; [setup_s] is
   the median over the run. The child's first writes to the heap pages
   it shares with its parent each take a page fault, so a full major
   collection and untimed set-ups up to the first minor collection come
   before the timed ones. *)
let time_setups cfg =
  match
    in_child (fun () ->
        Gc.full_major ();
        let minors () = (Gc.quick_stat ()).Gc.minor_collections in
        let before = minors () in
        while minors () = before do
          let (_ : runner) = setup cfg in
          ()
        done;
        List.init setup_reps (fun _ -> snd (timed (fun () -> (setup cfg : runner)))))
  with
  | Some ts -> ts
  | None ->
      print_endline "set-up: the set-up process failed";
      exit 1

(* {1 Main loop} *)

let run cfg =
  let runner = setup cfg in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" cfg.workload cfg.seed
    cfg.seconds
    (if cfg.trace then 1 else 0);
  if cfg.workload = "campaign_rerun" then
    Printf.printf "cold:warm 1:%d (a pass is one cold pass then %d warm passes)\n" warm_per_cold
      warm_per_cold;
  let ticks0 = cpu_ticks () in
  let t0 = now () in
  let pass_walls = ref [] in
  let pass_peaks = ref [] in
  let setup_times = ref [] in
  let rec loop pass =
    setup_times := time_setups cfg @ !setup_times;
    let traced = cfg.trace && pass mod 2 = 1 in
    let r = run_pass ~pass (fun () -> runner ~pass ~traced (pass_rng cfg pass)) in
    Printf.printf "pass %d %s: %d verdicts in %.4f s, peak RSS %.2f MB\n%!" pass
      (if traced then "traced" else "untraced")
      (List.length r.r_samples) r.r_wall r.r_peak;
    if not traced then begin
      pass_walls := (List.length r.r_samples, r.r_wall) :: !pass_walls;
      pass_peaks := r.r_peak :: !pass_peaks
    end;
    let finished =
      match cfg.passes with
      | Some n -> pass + 1 >= n
      | None -> now () -. t0 >= cfg.seconds && ((not cfg.trace) || pass >= 1)
    in
    if finished then pass + 1 else loop (pass + 1)
  in
  let passes = loop 0 in
  let all = List.rev !samples in
  let untraced = List.filter (fun s -> not s.s_traced) all in
  let traced = List.filter (fun s -> s.s_traced) all in
  Printf.printf "passes %d (%d untraced), verdicts %d (%d untraced)\n" passes
    (List.length !pass_walls) (List.length all) (List.length untraced);
  (match (ticks0, cpu_ticks ()) with
  | Some (total0, steal0), Some (total1, steal1) when total1 > total0 ->
      Printf.printf "host steal %.2f%% of CPU time during the passes\n"
        (100. *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0))
  | _ -> ());
  let e2e =
    end_to_end ~setup_times:!setup_times ~pass_walls:!pass_walls ~pass_peaks:!pass_peaks untraced
  in
  List.iter print_metric e2e;
  let reported =
    if cfg.trace then begin
      if !open_times <> [] then
        print_metric
          ( "cache.open_s",
            median !open_times,
            "s",
            Printf.sprintf "(median of %d opens; not in BENCHMARK.json)" (List.length !open_times) );
      let layers = per_layer ~traced ~untraced in
      List.iter print_metric layers;
      layers
    end
    else List.filter (fun (name, _, _, _) -> List.mem name gated_end_to_end) e2e
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !counter_lines);
      close_out oc)
    cfg.counters;
  let failed = List.length (List.filter (fun s -> not s.s_ok) all) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (List.length all) failed (json_metrics reported);
  exit (if failed = 0 then 0 else 1)

(* {1 Self-check: a wrong expected answer must fail the run} *)

let selfcheck () =
  let work = "perfbench_selfcheck_work" in
  let last_line args =
    let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
    let last = ref "" in
    (try
       while true do
         last := input_line ic
       done
     with End_of_file -> ());
    let status = Unix.close_process_in ic in
    (status, !last)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let case name args ~ok ~failed =
    let status, last =
      last_line ([ "--seed"; "1"; "--seconds"; "1"; "--trace"; "0"; "--passes"; "1"; "--work"; work ] @ args)
    in
    let exit_ok = (status = Unix.WEXITED 0) = ok in
    let line_ok =
      contains last (Printf.sprintf "\"correct\": %b" ok)
      && contains last (Printf.sprintf "\"failed\": %d" failed)
    in
    Printf.printf "selfcheck %-40s %s\n%!" name (if exit_ok && line_ok then "ok" else "FAILED: " ^ last);
    exit_ok && line_ok
  in
  let true_answer =
    case "cex_hunt M3, true answer" [ "--workload"; "cex_hunt"; "--only"; "M3" ] ~ok:true ~failed:0
  in
  let wrong_depth =
    case "cex_hunt M3, wrong CEX depth"
      [ "--workload"; "cex_hunt"; "--only"; "M3"; "--corrupt-expected"; "M3" ]
      ~ok:false ~failed:1
  in
  let wrong_channels =
    case "campaign_rerun maple_fixed, wrong channels"
      [ "--workload"; "campaign_rerun"; "--only"; "maple_fixed"; "--corrupt-expected"; "maple_fixed" ]
      ~ok:false ~failed:(1 + warm_per_cold)
  in
  rm_rf work;
  exit (if true_answer && wrong_depth && wrong_channels then 0 else 1)

let usage =
  "main.exe --workload (cex_hunt|deep_proof|campaign_rerun) --seed N --seconds S --trace 0|1\n\
  \         [--passes N] [--only ID,..] [--corrupt-expected ID,..] [--work DIR] [--counters FILE]\n\
  \       main.exe selfcheck"

let () =
  match Array.to_list Sys.argv with
  | [ _; "selfcheck" ] -> selfcheck ()
  | _ :: args ->
      let cfg =
        ref
          {
            workload = "";
            seed = 0;
            seconds = 10.;
            trace = false;
            passes = None;
            only = None;
            corrupt_ids = [];
            work = ".perfbench_work";
            counters = None;
          }
      in
      let ids s = String.split_on_char ',' s in
      let rec parse = function
        | [] -> ()
        | flag :: v :: rest ->
            (cfg :=
               match flag with
               | "--workload" -> { !cfg with workload = v }
               | "--seed" -> { !cfg with seed = int_of_string v }
               | "--seconds" -> { !cfg with seconds = float_of_string v }
               | "--trace" -> { !cfg with trace = v = "1" }
               | "--passes" -> { !cfg with passes = Some (int_of_string v) }
               | "--only" -> { !cfg with only = Some (ids v) }
               | "--corrupt-expected" -> { !cfg with corrupt_ids = ids v }
               | "--work" -> { !cfg with work = v }
               | "--counters" -> { !cfg with counters = Some v }
               | _ -> prerr_endline usage; exit 2);
            parse rest
        | _ -> prerr_endline usage; exit 2
      in
      parse args;
      run !cfg
  | [] -> prerr_endline usage; exit 2
