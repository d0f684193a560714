(* The service replay: one closed-loop client submitting the seeded
   request stream to the service, one request at a time, the way
   [analog_place serve] does. Output checks run after the timed pass.

   One worker: at two, the miss path's portfolio race runs its entrants
   concurrently and ends after an interleaving-dependent number of
   rounds, which moved the pass time by 30% between runs on a 2-vCPU
   host, beyond any usable bound. *)

let workers = 1

type response = {
  request : Workload.request;
  resp : Service.Request.response;
  latency_s : float;  (** around [Service.submit] *)
  elapsed_s : float;  (** the request's share of the pass: submit and record *)
}

let create ?telemetry () = Service.create ~workers ?telemetry ()

(* [between i] runs before request [i], outside its timing. *)
let run_pass ~spans ~between svc stream =
  List.mapi
    (fun i (request : Workload.request) ->
      between i;
      let t0 = Unix.gettimeofday () in
      let resp =
        Spans.span spans ~job:i "submit" (fun () ->
            Service.submit svc request.Workload.req)
      in
      let latency_s = Unix.gettimeofday () -. t0 in
      (* render the JSONL line [serve] would print: the record stage *)
      ignore
        (Spans.span spans ~job:i "record" (fun () ->
             Service.Request.response_line resp));
      { request; resp; latency_s; elapsed_s = Unix.gettimeofday () -. t0 })
    stream

(* ---- checks --------------------------------------------------------- *)

type checked = {
  failures : (string * string) list;  (** request id, what failed *)
  hpwls : float list;
  area_usages : float list;
  violations : int;
  verify_s : float list;  (** one per verified placement *)
  feasibility_s : float list;  (** one per unique request *)
}

let placed_of (circuit : Netlist.Circuit.t) rects =
  List.map
    (fun (r : Telemetry.Ledger.rect) ->
      {
        Geometry.Transform.cell = Netlist.Circuit.find_module circuit r.Telemetry.Ledger.cell;
        rect =
          Geometry.Rect.make ~x:r.Telemetry.Ledger.x ~y:r.Telemetry.Ledger.y
            ~w:r.Telemetry.Ledger.w ~h:r.Telemetry.Ledger.h;
        orient = Geometry.Orientation.R0;
      })
    rects

let result_text (r : Service.Request.response) =
  match r.Service.Request.body with
  | Ok b -> Telemetry.Json.emit (Service.Request.result_json b)
  | Error e -> "error: " ^ e

(* Every response is checked: the served tag matches the request class,
   every repeat is byte-identical to the first response for the same
   request, and every returned placement is valid and passes the
   verifier's geometry and symmetry checks. *)
let check responses =
  let first = Hashtbl.create 64 in
  let benches = Hashtbl.create 64 in
  let failures = ref [] and hpwls = ref [] and usages = ref [] in
  let violations = ref 0 and verify_s = ref [] and feas_s = ref [] in
  List.iter
    (fun (r : response) ->
      let id = r.resp.Service.Request.request_id in
      let fail m = failures := (id, m) :: !failures in
      let req = r.request in
      let key = Workload.content_key req in
      let bench, groups =
        match Hashtbl.find_opt benches key with
        | Some bg -> bg
        | None ->
            let b = Workload.resolve req.Workload.req.Service.Request.source in
            let hierarchy = b.Netlist.Benchmarks.hierarchy in
            let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
            let t0 = Unix.gettimeofday () in
            ignore
              (Analysis.Feasibility.check ~groups ~hierarchy
                 ?outline:req.Workload.req.Service.Request.outline
                 b.Netlist.Benchmarks.circuit);
            feas_s := (Unix.gettimeofday () -. t0) :: !feas_s;
            Hashtbl.add benches key (b, groups);
            (b, groups)
      in
      let served = r.resp.Service.Request.served in
      (match (req.Workload.cls, served) with
      | Workload.Infeasible, "infeasible" -> ()
      | (Workload.Free | Workload.Fitting), ("miss" | "hit" | "evict-miss") -> ()
      | cls, s ->
          fail
            (Printf.sprintf "%s request %s served %S: %s" (Workload.class_name cls)
               (Service.Request.source_label req.Workload.req.Service.Request.source)
               s (result_text r.resp)));
      let text = result_text r.resp in
      (match Hashtbl.find_opt first key with
      | None -> Hashtbl.add first key text
      | Some t0 -> if t0 <> text then fail "repeat differs from the first response");
      match r.resp.Service.Request.body with
      | Error _ -> ()
      | Ok body -> (
          let circuit = bench.Netlist.Benchmarks.circuit in
          hpwls := body.Service.Request.hpwl :: !hpwls;
          usages :=
            (100.0 *. float_of_int body.Service.Request.area
            /. float_of_int req.Workload.module_area)
            :: !usages;
          match placed_of circuit body.Service.Request.placement with
          | exception Not_found -> fail "placement names an unknown module"
          | placed ->
              (match Placer.Placement.validate (Placer.Placement.make circuit placed) with
              | Ok () -> ()
              | Error m -> fail ("invalid placement: " ^ m));
              let t0 = Unix.gettimeofday () in
              let diags =
                Analysis.Verify.placement ~groups
                  ~hierarchy:bench.Netlist.Benchmarks.hierarchy circuit placed
              in
              verify_s := (Unix.gettimeofday () -. t0) :: !verify_s;
              let fatal, counted = Flows.classify Workload.Sp diags in
              if fatal <> [] then
                fail ("verify: " ^ String.concat "," (Analysis.Diagnostic.codes fatal));
              violations := !violations + counted))
    responses;
  {
    failures = List.rev !failures;
    hpwls = !hpwls;
    area_usages = !usages;
    violations = !violations;
    verify_s = !verify_s;
    feasibility_s = !feas_s;
  }
