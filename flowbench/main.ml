(* flowbench: stage-by-stage benchmark of the layout flow.

     flowbench --workload <sp-sym-flow|tree-flow|serve-replay>
               --seed <n> --seconds <s> --trace <0|1>

   Runs timed passes of the workload for about [--seconds] seconds,
   checks every output, and prints one JSON result as the last line of
   standard output: end-to-end metrics with [--trace 0], per-layer
   metrics with [--trace 1]. Exits 1 when a check fails, 2 on bad
   arguments. See README.md beside this file. *)

open Flowbench

let now = Unix.gettimeofday
let median xs = Prelude.Stats.quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)
let fi = float_of_int

let count_diffs xs ys =
  List.fold_left2 (fun acc x y -> if x <> y then acc + 1 else acc) 0 xs ys

(* Set-up runs once before every pass and is sampled again, outside
   the timed jobs and requests, before every job of a flow pass and
   every [sample_every]-th request of a replay pass; the host-speed
   loop ([Host]) is timed at the same points and once after the pass.
   Set-up is reported as the median of all samples, each rescaled by
   the loop sample taken just before it: samples spread over the whole
   run keep a one-off page-fault or domain-spawn stall from moving it. *)
let sample_every = 7

let usage () =
  prerr_endline
    "usage: flowbench --workload <sp-sym-flow|tree-flow|serve-replay> --seed \
     <n> --seconds <s> --trace <0|1>";
  exit 2

type args = { workload : Workload.name; wname : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r = Arg.Int (fun v -> r := Some v) in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "name");
         ("--seed", int_arg seed, "n");
         ("--seconds", int_arg seconds, "s");
         ("--trace", int_arg trace, "0|1");
       ]
       (fun _ -> raise (Arg.Bad "unexpected argument"))
       "flowbench"
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     usage ());
  match (Workload.of_string !workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some t when s > 0 && (t = 0 || t = 1) ->
      { workload = w; wname = !workload; seed; seconds = fi s; trace = t = 1 }
  | _ -> usage ()

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Option.value (int_of_string_opt (String.trim line)) ~default:0
    | _ -> 0
  with _ -> 0

(* ---- accounting shared by both kinds of workload --------------------- *)

type run = {
  values : (string, float) Hashtbl.t;
  samples : (string, int) Hashtbl.t;  (** sample count behind each percentile *)
  mutable attempted : int;
  mutable failed : int;
  mutable cal : float;  (** the latest host-speed loop sample *)
  mutable cals : float list;
  mutable loop_words : float;  (** minor words the loop allocated *)
  mutable loop_majors : int;  (** major collections the loop forced *)
  mutable setups : float list;  (** rescaled to the reference speed *)
  mutable untraced_walls : float list;
  mutable unit_times : (int * float array) list;
      (** per timed untraced pass, its job list and the rescaled time of
          each job or request *)
  mutable raw_unit_times : (int * float array) list;
  mutable traced_walls : float list;
}

let set run name v = Hashtbl.replace run.values name v

let fail run ~ops fmt =
  Printf.ksprintf
    (fun m ->
      run.failed <- run.failed + ops;
      Printf.eprintf "flowbench: check failed: %s\n%!" m)
    fmt

let calibrate run =
  let s0 = Gc.quick_stat () in
  let c = Host.loop () in
  let s1 = Gc.quick_stat () in
  run.loop_words <- run.loop_words +. s1.Gc.minor_words -. s0.Gc.minor_words;
  run.loop_majors <- run.loop_majors + s1.Gc.major_collections - s0.Gc.major_collections;
  run.cal <- c;
  run.cals <- c :: run.cals;
  c

let timed_setup run f =
  let t0 = now () in
  let v = f () in
  run.setups <- ((now () -. t0) *. Host.reference_s /. run.cal) :: run.setups;
  v

let sample_setup run f =
  let _, release = timed_setup run f in
  release ()

(* The time of one pass, robust to bursts of load from other processes
   on the host: the passes of one job list run the same jobs (or
   requests) in the same order, so each one's median over those passes
   is summed. A burst slows the units it overlaps in one pass only, and
   the median drops them. The lists' sums are then averaged: they run
   the same jobs with different anneal seeds, and a mean keeps every
   seed's draw, where a median of a job's bimodal costs (miller-v2 at
   0.1 or 0.9 s) would jump between the modes. *)
let pass_estimate passes =
  let lists = List.sort_uniq compare (List.map fst passes) in
  let list_time l =
    let ps = List.filter_map (fun (k, p) -> if k = l then Some p else None) passes in
    sum (List.init (Array.length (List.hd ps)) (fun i -> median (List.map (fun p -> p.(i)) ps)))
  in
  if lists = [] then None else Some (mean (List.map list_time lists))

(* Stop starting passes once another would overrun the deadline. *)
let more ~deadline ~done_ walls =
  done_ = 0 || now () +. List.fold_left max 0.0 walls < deadline

(* Record a timed untraced pass of job list [list]: each unit's raw
   time, and the same rescaled by the loop samples around it. *)
let add_unit_times run ~list ~every samples raw =
  run.raw_unit_times <- (list, raw) :: run.raw_unit_times;
  run.unit_times <- (list, Array.mapi (Host.rescale ~every samples) raw) :: run.unit_times

let percentiles run name samples_s ~scale =
  Hashtbl.replace run.samples name (List.length samples_s);
  let q p = scale *. Prelude.Stats.quantile samples_s p in
  (q 0.5, q 0.9)

(* The program's allocation and major collections during [f], without
   the host-speed loop's. *)
let gc_delta run f =
  let s0 = Gc.quick_stat () and w0 = run.loop_words and m0 = run.loop_majors in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    (s1.Gc.minor_words -. s0.Gc.minor_words -. (run.loop_words -. w0))
    *. fi (Sys.word_size / 8) /. 1048576.0,
    s1.Gc.major_collections - s0.Gc.major_collections - (run.loop_majors - m0) )

let write_trace wname spans extra =
  let dir = Filename.concat "flowbench" "_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir ("trace-" ^ wname ^ ".jsonl") in
  try
    let oc = open_out path in
    Spans.to_jsonl oc spans;
    List.iter (fun l -> output_string oc l; output_char oc '\n') extra;
    close_out oc
  with Sys_error m -> Printf.eprintf "flowbench: trace not written: %s\n%!" m

let seqpair_replay run seed =
  let rows = Replay.run seed in
  List.iter
    (fun (r : Replay.row) ->
      set run ("seqpair.sym_pack_us." ^ r.Replay.key) r.Replay.sym_pack_us;
      set run ("seqpair.fast_pack_us." ^ r.Replay.key) r.Replay.fast_pack_us;
      set run ("seqpair.sym_fast_ratio." ^ r.Replay.key)
        (r.Replay.sym_pack_us /. r.Replay.fast_pack_us))
    rows;
  let errs = List.fold_left (fun a (r : Replay.row) -> a + r.Replay.errors) 0 rows in
  let codes = List.fold_left (fun a (r : Replay.row) -> a + r.Replay.codes) 0 rows in
  set run "seqpair.sym_pack_error_ratio" (fi errs /. fi codes)

(* ---- the two flows -------------------------------------------------- *)

let flow_qor (r : Flows.result) = r.Flows.qor

let flow_checks run (results : Flows.result list) =
  List.iter
    (fun (r : Flows.result) ->
      run.attempted <- run.attempted + 1;
      if r.Flows.failures <> [] then
        fail run ~ops:1 "%s/%s: %s" r.Flows.key
          (Workload.engine_name r.Flows.job.Workload.engine)
          (String.concat "; " r.Flows.failures))
    results

let same_qor run ~what reference results =
  let diffs = count_diffs (List.map flow_qor reference) (List.map flow_qor results) in
  if diffs > 0 then fail run ~ops:diffs "%d jobs: QoR differs %s" diffs what

let flow_qor_metrics run (results : Flows.result list) =
  let qs = List.filter_map flow_qor results in
  set run "hpwl_geomean" (Prelude.Stats.geo_mean (List.map (fun q -> q.Flows.hpwl) qs));
  set run "area_usage_pct" (mean (List.map (fun q -> q.Flows.area_usage_pct) qs));
  set run "route.wl_geomean"
    (Prelude.Stats.geo_mean (List.map (fun q -> fi q.Flows.routed_wl) qs));
  set run "route.overflow" (fi (List.fold_left (fun a q -> a + q.Flows.overflow) 0 qs));
  set run "route.failed_nets" (fi (List.fold_left (fun a q -> a + q.Flows.failed_nets) 0 qs));
  set run "qor.violations" (fi (List.fold_left (fun a q -> a + q.Flows.violations) 0 qs))

(* Per-layer metrics of the traced passes: stage self times from the
   benchmark spans, layer counters from the copied sinks. Totals are
   per pass. *)
let flow_layer_metrics run ~passes spans (results : Flows.result list) =
  let per_pass = 1.0 /. fi passes in
  let key_of = Hashtbl.create 32 in
  List.iter (fun (r : Flows.result) -> Hashtbl.replace key_of r.Flows.job.Workload.id r.Flows.key) results;
  let stage_tot = Hashtbl.create 64 in
  let add k v = Hashtbl.replace stage_tot k (v +. Option.value (Hashtbl.find_opt stage_tot k) ~default:0.0) in
  List.iter
    (fun ((s : Spans.span), self) ->
      let c = Hashtbl.find key_of s.Spans.job in
      add (s.Spans.name, "") self;
      add (s.Spans.name, c) self;
      if s.Spans.name = "job" then begin
        add ("all", "") (s.Spans.stop -. s.Spans.start);
        add ("all", c) (s.Spans.stop -. s.Spans.start)
      end)
    (Spans.self_times spans);
  let tot name c = Option.value (Hashtbl.find_opt stage_tot (name, c)) ~default:0.0 in
  let share name c = let a = tot "all" c in if a > 0.0 then tot name c /. a else 0.0 in
  List.iter
    (fun st ->
      set run ("stage." ^ st ^ "_s") (per_pass *. tot st "");
      set run ("stage." ^ st ^ "_share") (share st ""))
    Flows.stages;
  List.iter
    (fun c ->
      List.iter
        (fun st ->
          set run (Printf.sprintf "stage.%s_s.%s" st c) (per_pass *. tot st c);
          set run (Printf.sprintf "stage.%s_share.%s" st c) (share st c))
        [ "place"; "route" ])
    Workload.table1_keys;
  let n_jobs = fi (List.length results) in
  set run "analysis.feasibility_us" (1e6 *. tot "feasibility" "" /. n_jobs);
  set run "analysis.verify_us" (1e6 *. tot "verify" "" /. n_jobs);
  set run "telemetry.record_us" (1e6 *. tot "record" "" /. n_jobs);
  let by_engine e =
    List.filter (fun (r : Flows.result) -> r.Flows.job.Workload.engine = e) results
  in
  let sum_by f rs = List.fold_left (fun a r -> a +. f r) 0.0 rs in
  let job_place (r : Flows.result) = r.Flows.place_s in
  List.iter
    (fun c ->
      let of_c e = List.filter (fun (r : Flows.result) -> r.Flows.key = c) (by_engine e) in
      let annealed = of_c Workload.Sp @ of_c Workload.Bstar in
      let evals = sum_by (fun r -> fi r.Flows.evals) annealed in
      let secs = sum_by job_place annealed in
      set run ("placer.evals." ^ c) (per_pass *. evals);
      set run ("placer.evals_per_s." ^ c) (if secs > 0.0 then evals /. secs else 0.0);
      let bs = of_c Workload.Bstar in
      let bsecs = sum_by job_place bs in
      set run ("bstar.evals_per_s." ^ c)
        (if bsecs > 0.0 then sum_by (fun r -> fi r.Flows.evals) bs /. bsecs else 0.0);
      set run ("bstar.hbstar_place_s." ^ c) (per_pass *. sum_by job_place (of_c Workload.Hbstar));
      set run ("shapefn.esf_place_s." ^ c) (per_pass *. sum_by job_place (of_c Workload.Esf));
      let of_key = List.filter (fun (r : Flows.result) -> r.Flows.key = c) results in
      set run ("route.iterations." ^ c)
        (per_pass *. sum_by (fun r -> fi r.Flows.route_iterations) of_key);
      set run ("route.search_pops." ^ c)
        (per_pass
        *. sum_by
             (fun r ->
               match r.Flows.sink with
               | Some s -> fi (Flows.counter s "route.search.pops")
               | None -> 0.0)
             of_key))
    Workload.table1_keys;
  let sinks = List.filter_map (fun (r : Flows.result) -> Option.map (fun s -> (r, s)) r.Flows.sink) results in
  let csum name = List.fold_left (fun a (_, s) -> a + Flows.counter s name) 0 sinks in
  let stot name = List.fold_left (fun a (_, s) -> a +. snd (Flows.span_total s name)) 0.0 sinks in
  let cost = stot "eval.cost" in
  set run "placer.pack_share" (if cost > 0.0 then stot "eval.pack" /. cost else 0.0);
  set run "anneal.rounds" (per_pass *. sum_by (fun r -> fi r.Flows.rounds) results);
  let acc, rej =
    List.fold_left
      (fun (a, r) (_, s) ->
        List.fold_left
          (fun (a, r) (_, ac, rj) -> (a + ac, r + rj))
          (a, r)
          (Telemetry.Qor.move_rates_of_counters s.Flows.counters))
      (0, 0) sinks
  in
  set run "anneal.accept_ratio" (if acc + rej > 0 then fi acc /. fi (acc + rej) else 0.0);
  let route_s = tot "route" "" in
  let pops = fi (csum "route.search.pops") in
  set run "route.pops_per_s" (if route_s > 0.0 then pops /. route_s else 0.0);
  set run "route.ripped" (per_pass *. fi (csum "route.ripped"));
  set run "telemetry.dropped_spans"
    (per_pass *. fi (List.fold_left (fun a (_, s) -> a + s.Flows.dropped) 0 sinks));
  let flags =
    List.sort_uniq compare
      (List.concat_map (fun ((r : Flows.result), s) -> Flows.zero_counter_flags r.Flows.job.Workload.engine s) sinks)
  in
  List.iter (Printf.eprintf "flowbench: telemetry flag: %s\n%!") flags;
  set run "telemetry.zero_counter_flags" (fi (List.length flags))

let flow_workload run (a : args) ~git_rev ~deadline =
  let generated_at = Telemetry.Ledger.timestamp () in
  (* set-up builds the circuits the passes place and their job lists *)
  let build () =
    let suite = Netlist.Benchmarks.table1_suite () in
    let sets = Workload.flow_job_sets a.workload a.seed in
    let known (j : Workload.flow_job) =
      List.exists
        (fun (b : Netlist.Benchmarks.bench) -> b.Netlist.Benchmarks.label = j.Workload.label)
        suite
    in
    if not (List.for_all (List.for_all known) sets) then
      failwith "a job names a circuit outside the Table-I suite";
    ((suite, Array.of_list sets), ignore)
  in
  let n_sets = Workload.job_sets a.workload in
  (* Pass [k] runs job list [k mod n_sets]; it returns the pass's loop
     samples: one before every job, one after the last. *)
  let pass ~traced spans k =
    let suite, sets = fst (timed_setup run build) in
    let jobs = sets.(k mod n_sets) in
    let samples = ref [] in
    let t0 = now () in
    let results =
      Flows.run_pass ~spans ~traced ~smoke:false ~git_rev ~generated_at
        ~between:(fun _ ->
          samples := calibrate run :: !samples;
          sample_setup run build)
        suite jobs
    in
    let wall = now () -. t0 in
    samples := calibrate run :: !samples;
    flow_checks run results;
    (wall, results, Array.of_list (List.rev !samples))
  in
  let off = Spans.create ~live:false in
  (* The first pass of each list gives its reference QoR, which every
     later pass of the list, traced or not, must repeat. A run makes at
     least one pass of every list, so its QoR covers all of them. *)
  let refs = Array.make n_sets [] in
  let untraced k =
    let wall, results, samples = pass ~traced:false off k in
    if k < n_sets then refs.(k) <- results
    else same_qor run ~what:"between passes" refs.(k mod n_sets) results;
    run.untraced_walls <- wall :: run.untraced_walls;
    add_unit_times run ~list:(k mod n_sets) ~every:1 samples
      (Array.of_list (List.map (fun (r : Flows.result) -> r.Flows.job_s) results))
  in
  if not a.trace then begin
    let k = ref 0 in
    while !k < n_sets || more ~deadline ~done_:!k run.untraced_walls do
      untraced !k;
      incr k
    done;
    flow_qor_metrics run (List.concat (Array.to_list refs))
  end
  else begin
    let spans = Spans.create ~live:true in
    let all = ref [] and passes = ref 0 and minor = ref 0.0 and major = ref 0 in
    let replay_budget = if a.workload = Workload.Sp_sym_flow then 2.0 else 0.0 in
    untraced 0;
    (* Traced passes cycle through the lists as far as the time allows.
       Those of list 0 repeat the untraced pass's work: their QoR is
       checked against it, and their walls alone (in [traced_walls])
       give the tracing overhead. *)
    let walls = ref [] in
    while
      !passes = 0 || now () +. List.fold_left max 0.0 !walls < deadline -. replay_budget
    do
      let (wall, results, _), mn, mj = gc_delta run (fun () -> pass ~traced:true spans !passes) in
      if !passes mod n_sets = 0 then begin
        same_qor run ~what:"between the traced and the untraced run" refs.(0) results;
        run.traced_walls <- wall :: run.traced_walls
      end
      else if !passes < n_sets then refs.(!passes) <- results;
      walls := wall :: !walls;
      all := results @ !all;
      incr passes;
      minor := !minor +. mn;
      major := !major + mj
    done;
    flow_layer_metrics run ~passes:!passes spans !all;
    flow_qor_metrics run (List.concat (Array.to_list refs));
    set run "gc.minor_mb" (!minor /. fi !passes);
    set run "gc.major_collections" (fi !major /. fi !passes);
    if a.workload = Workload.Sp_sym_flow then seqpair_replay run a.seed;
    write_trace a.wname spans
      (List.filter_map
         (fun (r : Flows.result) ->
           Option.map
             (fun (s : Flows.sink_copy) ->
               let module J = Telemetry.Json in
               J.emit
                 (J.Obj
                    [
                      ("job", J.int r.Flows.job.Workload.id);
                      ("circuit", J.str r.Flows.key);
                      ("engine", J.str (Workload.engine_name r.Flows.job.Workload.engine));
                      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.int v)) s.Flows.counters));
                      ( "spans",
                        J.Obj
                          (List.map
                             (fun (k, (c, d)) -> (k, J.Obj [ ("count", J.int c); ("total_s", J.float d) ]))
                             s.Flows.span_totals) );
                      ("dropped_spans", J.int s.Flows.dropped);
                    ]))
             r.Flows.sink)
         (List.rev !all))
  end

(* ---- the service replay --------------------------------------------- *)

let serve_checks run (responses : Serve.response list) =
  run.attempted <- run.attempted + List.length responses;
  let c = Serve.check responses in
  let bad = List.sort_uniq compare (List.map fst c.Serve.failures) in
  List.iter (fun (id, m) -> Printf.eprintf "flowbench: check failed: %s: %s\n%!" id m) c.Serve.failures;
  run.failed <- run.failed + List.length bad;
  c

(* With one worker the miss path's portfolio race is sequential and a
   function of the request seed, so every pass must serve every request
   the same way with the same result. *)
let same_served run ~what reference rs =
  let served =
    List.map (fun (r : Serve.response) ->
        (r.Serve.resp.Service.Request.served, Serve.result_text r.Serve.resp))
  in
  let diffs = count_diffs (served reference) (served rs) in
  if diffs > 0 then fail run ~ops:diffs "%d responses differ %s" diffs what

let serve_workload run (a : args) ~deadline =
  let build ?telemetry () =
    let stream = Workload.requests a.seed in
    let svc = Serve.create ?telemetry () in
    ((stream, svc), fun () -> Service.shutdown svc)
  in
  (* returns the pass's loop samples: one before every [sample_every]-th
     request, one after the last *)
  let pass ?telemetry spans =
    let stream, svc = fst (timed_setup run (build ?telemetry)) in
    let samples = ref [] in
    let between i =
      if i mod sample_every = 0 then begin
        samples := calibrate run :: !samples;
        sample_setup run build
      end
    in
    let t0 = now () in
    let responses = Serve.run_pass ~spans ~between svc stream in
    let wall = now () -. t0 in
    samples := calibrate run :: !samples;
    let counters = List.map (fun n -> (n, Service.counter_value svc n))
        [ "service.requests"; "service.hits"; "service.neg_hits"; "service.instantiations"; "service.verify_evictions" ] in
    Service.shutdown svc;
    (wall, responses, counters, serve_checks run responses, Array.of_list (List.rev !samples))
  in
  let add_requests samples rs =
    add_unit_times run ~list:0 ~every:sample_every samples
      (Array.of_list (List.map (fun (r : Serve.response) -> r.Serve.elapsed_s) rs))
  in
  let off = Spans.create ~live:false in
  (* the first pass warms the process up (heap growth, first-touch
     pages): it is checked and gives the reference QoR, but not timed *)
  let wall0, first, _, checked0, _ = pass off in
  let more walls = more ~deadline ~done_:(List.length walls) (wall0 :: walls) in
  let set_qor (c : Serve.checked) =
    set run "hpwl_geomean" (Prelude.Stats.geo_mean c.Serve.hpwls);
    set run "area_usage_pct" (mean c.Serve.area_usages);
    set run "qor.violations" (fi c.Serve.violations)
  in
  set_qor checked0;
  let latency rs = List.map (fun (r : Serve.response) -> r.Serve.latency_s) rs in
  if not a.trace then begin
    while more run.untraced_walls do
      let wall, rs, _, _, samples = pass off in
      same_served run ~what:"between passes" first rs;
      run.untraced_walls <- wall :: run.untraced_walls;
      add_requests samples rs
    done
  end
  else begin
    let wall, rs, _, _, samples = pass off in
    same_served run ~what:"between passes" first rs;
    run.untraced_walls <- [ wall ];
    add_requests samples rs;
    let spans = Spans.create ~live:true in
    let all = ref [] and counters = ref [] and passes = ref 0 in
    let minor = ref 0.0 and major = ref 0 and dropped = ref 0 in
    let verify_s = ref [] and feas_s = ref [] in
    let replay_budget = 2.0 in
    while
      !passes = 0
      || now () +. List.fold_left max 0.0 run.traced_walls < deadline -. replay_budget
    do
      let sink = Telemetry.Sink.create () in
      let (wall, rs, cs, checked, _), mn, mj = gc_delta run (fun () -> pass ~telemetry:sink spans) in
      same_served run ~what:"between the traced and the untraced run" first rs;
      run.traced_walls <- wall :: run.traced_walls;
      all := rs @ !all;
      counters := cs @ !counters;
      verify_s := checked.Serve.verify_s @ !verify_s;
      feas_s := checked.Serve.feasibility_s @ !feas_s;
      dropped := !dropped + Telemetry.Sink.dropped_spans sink;
      incr passes;
      minor := !minor +. mn;
      major := !major + mj
    done;
    let per_pass = 1.0 /. fi !passes in
    let csum n = fi (List.fold_left (fun acc (k, v) -> if k = n then acc + v else acc) 0 !counters) in
    set run "service.hit_ratio"
      ((csum "service.hits" +. csum "service.neg_hits") /. csum "service.requests");
    set run "service.instantiations" (per_pass *. csum "service.instantiations");
    set run "service.verify_evictions" (per_pass *. csum "service.verify_evictions");
    let p50, p90 = percentiles run "service.latency" (latency !all) ~scale:1e3 in
    set run "service.latency_p50_ms" p50;
    set run "service.latency_p90_ms" p90;
    let served tags =
      List.filter_map
        (fun (r : Serve.response) ->
          if List.mem r.Serve.resp.Service.Request.served tags then Some r.Serve.latency_s else None)
        !all
    in
    let miss50, _ = percentiles run "service.miss" (served [ "miss"; "evict-miss" ]) ~scale:1e3 in
    let hit50, hit90 = percentiles run "service.hit" (served [ "hit" ]) ~scale:1e6 in
    let inf50, _ = percentiles run "service.infeasible" (served [ "infeasible" ]) ~scale:1e6 in
    set run "service.miss_ms_p50" miss50;
    set run "service.hit_us_p50" hit50;
    set run "service.hit_us_p90" hit90;
    set run "service.infeasible_us_p50" inf50;
    set run "analysis.verify_us" (1e6 *. mean !verify_s);
    set run "analysis.feasibility_us" (1e6 *. mean !feas_s);
    let record =
      List.filter_map
        (fun ((s : Spans.span), self) -> if s.Spans.name = "record" then Some self else None)
        (Spans.self_times spans)
    in
    set run "telemetry.record_us" (1e6 *. mean record);
    set run "telemetry.dropped_spans" (per_pass *. fi !dropped);
    set run "gc.minor_mb" (!minor /. fi !passes);
    set run "gc.major_collections" (fi !major /. fi !passes);
    seqpair_replay run a.seed;
    write_trace a.wname spans []
  end

(* ---- entry point ---------------------------------------------------- *)

let () =
  let a = parse_args () in
  let git_rev = Telemetry.Ledger.git_rev () in
  let t_start = now () in
  let deadline = t_start +. a.seconds in
  let run =
    {
      values = Hashtbl.create 256;
      samples = Hashtbl.create 8;
      attempted = 0;
      failed = 0;
      cal = 0.0;
      cals = [];
      loop_words = 0.0;
      loop_majors = 0;
      setups = [];
      untraced_walls = [];
      unit_times = [];
      raw_unit_times = [];
      traced_walls = [];
    }
  in
  ignore (calibrate run);
  (try
     match a.workload with
     | Workload.Sp_sym_flow | Workload.Tree_flow -> flow_workload run a ~git_rev ~deadline
     | Workload.Serve_replay -> serve_workload run a ~deadline
   with e ->
     run.attempted <- run.attempted + 1;
     fail run ~ops:1 "uncaught %s" (Printexc.to_string e));
  set run "setup_s" (median run.setups);
  set run "host.loop_ms" (1e3 *. median run.cals);
  (match (pass_estimate run.unit_times, pass_estimate run.raw_unit_times) with
  | Some wall, Some raw ->
      set run "wall_s" wall;
      set run "req_per_s" (fi (Array.length (snd (List.hd run.unit_times))) /. wall);
      set run "host.wall_raw_s" raw
  | _ -> ());
  set run "gc.heap_peak_mb"
    (fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  if a.trace && run.traced_walls <> [] then begin
    let u = median run.untraced_walls in
    set run "telemetry.trace_overhead_pct" (100.0 *. (median run.traced_walls -. u) /. u)
  end;
  let module J = Telemetry.Json in
  print_endline
    (J.emit
       (J.Obj
          [
            ( "provenance",
              J.Obj
                [
                  ("workload", J.str a.wname);
                  ("seed", J.int a.seed);
                  ("seconds", J.float a.seconds);
                  ("trace", J.bool a.trace);
                  ("nproc", J.int (nproc ()));
                  ("recommended_domain_count", J.int (Domain.recommended_domain_count ()));
                  ("service_workers", J.int Serve.workers);
                  ("ocaml", J.str Sys.ocaml_version);
                  ("git_rev", J.str git_rev);
                  ("untraced_pass_s", J.Arr (List.rev_map J.float run.untraced_walls));
                  ("traced_pass_s", J.Arr (List.rev_map J.float run.traced_walls));
                  ("setup_samples", J.int (List.length run.setups));
                  ("host_loop_ms", J.float (1e3 *. median run.cals));
                  ( "wall_raw_s",
                    J.float (Option.value (pass_estimate run.raw_unit_times) ~default:0.0) );
                  ( "percentile_samples",
                    J.Obj
                      (Hashtbl.fold (fun k v acc -> (k, J.int v) :: acc) run.samples []
                      |> List.sort compare) );
                  ("elapsed_s", J.float (now () -. t_start));
                ] );
          ]));
  let correct = run.failed = 0 && run.attempted > 0 in
  let metrics =
    try Report.metrics ~trace:a.trace run.values
    with Invalid_argument m ->
      Printf.eprintf "flowbench: %s\n%!" m;
      exit 1
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-36s %16.6g %s\n" name v unit) metrics;
  print_endline
    (Report.result_line ~correct ~attempted:(max 1 run.attempted) ~failed:run.failed metrics);
  if not correct then exit 1
