(* The metric catalogue and the result line.

   End-to-end metrics come from the untraced run, per-layer metrics
   from the traced run. BENCHMARK.json lists exactly these names; the
   self-test checks the two agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("req_per_s", "1/s");
    ("hpwl_geomean", "lu");
    ("area_usage_pct", "%");
  ]

let per_circuit prefix unit =
  List.map (fun k -> (prefix ^ "." ^ k, unit)) Workload.table1_keys

let per_layer =
  List.concat
    [
      List.map (fun s -> ("stage." ^ s ^ "_s", "s")) Flows.stages;
      List.map (fun s -> ("stage." ^ s ^ "_share", "ratio")) Flows.stages;
      per_circuit "stage.place_s" "s";
      per_circuit "stage.route_s" "s";
      per_circuit "stage.place_share" "ratio";
      per_circuit "stage.route_share" "ratio";
      per_circuit "seqpair.sym_pack_us" "us";
      per_circuit "seqpair.fast_pack_us" "us";
      per_circuit "seqpair.sym_fast_ratio" "ratio";
      [ ("seqpair.sym_pack_error_ratio", "ratio") ];
      per_circuit "placer.evals" "count";
      per_circuit "placer.evals_per_s" "1/s";
      [
        ("placer.pack_share", "ratio");
        ("anneal.rounds", "count");
        ("anneal.accept_ratio", "ratio");
      ];
      per_circuit "bstar.evals_per_s" "1/s";
      per_circuit "bstar.hbstar_place_s" "s";
      per_circuit "shapefn.esf_place_s" "s";
      per_circuit "route.iterations" "count";
      per_circuit "route.search_pops" "count";
      [
        ("route.pops_per_s", "1/s");
        ("route.ripped", "count");
        ("route.failed_nets", "count");
        ("route.overflow", "count");
        ("route.wl_geomean", "tracks");
        ("analysis.feasibility_us", "us");
        ("analysis.verify_us", "us");
        ("service.latency_p50_ms", "ms");
        ("service.latency_p90_ms", "ms");
        ("service.hit_ratio", "ratio");
        ("service.miss_ms_p50", "ms");
        ("service.hit_us_p50", "us");
        ("service.hit_us_p90", "us");
        ("service.infeasible_us_p50", "us");
        ("service.instantiations", "count");
        ("service.verify_evictions", "count");
        ("telemetry.record_us", "us");
        ("telemetry.trace_overhead_pct", "%");
        ("telemetry.dropped_spans", "count");
        ("telemetry.zero_counter_flags", "count");
        ("gc.heap_peak_mb", "MB");
        ("gc.minor_mb", "MB");
        ("gc.major_collections", "count");
        ("qor.violations", "count");
        ("host.wall_raw_s", "s");
        ("host.loop_ms", "ms");
      ];
    ]

let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

(* Per-layer metrics of a layer the workload does not cross read 0:
   no calls, no time, no events. End-to-end metrics must all be
   measured. *)
let metrics ~trace values =
  let catalogue = if trace then per_layer else end_to_end in
  List.map
    (fun (name, unit) ->
      let value =
        match Hashtbl.find_opt values name with
        | Some v -> v
        | None when trace -> 0.0
        | None -> invalid_arg ("unmeasured end-to-end metric " ^ name)
      in
      (name, unit, value))
    catalogue

let result_line ~correct ~attempted ~failed metrics =
  let module J = Telemetry.Json in
  J.emit
    (J.Obj
       [
         ("correct", J.bool correct);
         ("attempted", J.int attempted);
         ("failed", J.int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, value) ->
                  (name, J.Obj [ ("value", J.float value); ("unit", J.str unit) ]))
                metrics) );
       ])
