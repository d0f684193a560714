(* Self-tests of the flow benchmark: seeded inputs, metric names, the
   catalogue in BENCHMARK.json, and a smoke-sized pass of every
   workload with its output checks. *)

open Flowbench

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let stream seed =
  List.map
    (fun (r : Workload.request) ->
      (r.Workload.req.Service.Request.id, Workload.content_key r, r.Workload.cls))
    (Workload.requests seed)

let class_mix seed =
  List.sort compare
    (List.map (fun (r : Workload.request) -> Workload.class_name r.Workload.cls)
       (Workload.requests seed))

let seeded_inputs () =
  List.iter
    (fun (name, w) ->
      let sets = Workload.flow_job_sets w in
      let circuits = List.map (List.map (fun (j : Workload.flow_job) -> (j.Workload.label, j.Workload.engine))) in
      check (name ^ ": same seed, same job lists") (sets 7 = sets 7);
      check (name ^ ": new seed, new anneal seeds") (sets 7 <> sets 8);
      check (name ^ ": every list runs the same jobs in the same order")
        (match circuits (sets 7) with
        | [] -> false
        | c0 :: rest -> List.for_all (( = ) c0) rest))
    [ ("sp-sym-flow", Workload.Sp_sym_flow); ("tree-flow", Workload.Tree_flow) ];
  check "serve-replay: same seed, same request stream" (stream 7 = stream 7);
  check "serve-replay: new seed, different stream" (stream 7 <> stream 8);
  check "serve-replay: new seed, same class mix" (class_mix 7 = class_mix 8);
  let keys = List.map (fun (_, k, _) -> k) (stream 7) in
  check "serve-replay: every key requested three times"
    (List.for_all
       (fun k -> List.length (List.filter (String.equal k) keys) = 3)
       keys)

let names_of json field =
  match Telemetry.Json.member field json with
  | Some (Telemetry.Json.Arr ms) ->
      List.filter_map
        (fun m ->
          Option.bind (Telemetry.Json.member "name" m) Telemetry.Json.to_str)
        ms
  | _ -> []

let metric_names () =
  let all = List.map fst (Report.end_to_end @ Report.per_layer) in
  check "metric names match [A-Za-z0-9_.-]+" (List.for_all Report.valid_name all);
  check "metric names are unique"
    (List.length (List.sort_uniq compare all) = List.length all);
  let json =
    let ic = open_in_bin "../BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Telemetry.Json.parse s
  in
  match json with
  | Error m -> check ("BENCHMARK.json parses: " ^ m) false
  | Ok j ->
      check "BENCHMARK.json lists the end-to-end metrics"
        (names_of j "end_to_end" = List.map fst Report.end_to_end);
      check "BENCHMARK.json lists the per-layer metrics"
        (names_of j "per_layer" = List.map fst Report.per_layer);
      check "BENCHMARK.json names the three workloads"
        (names_of j "workloads" = List.map fst Workload.names)

let smoke () =
  let spans = Spans.create ~live:true in
  List.iter
    (fun (name, w) ->
      let results =
        Flows.run_pass ~spans ~traced:true ~smoke:true ~git_rev:"selftest"
          ~generated_at:"2000-01-01T00:00:00Z" ~between:ignore
          (Netlist.Benchmarks.table1_suite ())
          (List.hd (Workload.flow_job_sets ~smoke:true w 7))
      in
      List.iter
        (fun (r : Flows.result) -> List.iter (Printf.printf "  %s: %s\n" r.Flows.key) r.Flows.failures)
        results;
      check (name ^ ": smoke pass, checks green")
        (results <> []
        && List.for_all
             (fun (r : Flows.result) -> r.Flows.failures = [] && r.Flows.qor <> None)
             results))
    [ ("sp-sym-flow", Workload.Sp_sym_flow); ("tree-flow", Workload.Tree_flow) ];
  let svc = Serve.create () in
  let responses =
    Fun.protect
      ~finally:(fun () -> Service.shutdown svc)
      (fun () -> Serve.run_pass ~spans ~between:ignore svc (Workload.requests ~smoke:true 7))
  in
  let c = Serve.check responses in
  List.iter (fun (id, m) -> Printf.printf "  %s: %s\n" id m) c.Serve.failures;
  check "serve-replay: smoke pass, checks green" (responses <> [] && c.Serve.failures = []);
  let repeats =
    List.filter
      (fun (r : Serve.response) ->
        List.mem r.Serve.resp.Service.Request.served [ "hit"; "infeasible" ])
      responses
  in
  check "serve-replay: repeats are served from the caches"
    (List.length repeats * 3 >= List.length responses * 2)

let () =
  seeded_inputs ();
  metric_names ();
  smoke ();
  if !failures > 0 then exit 1
