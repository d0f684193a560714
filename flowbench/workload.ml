(* Job lists and request streams, derived from the workload seed alone.

   Everything here is pure: the same seed always yields the same list,
   so two runs of a workload measure the same work, and the self-tests
   can compare streams without running anything. *)

type name = Sp_sym_flow | Tree_flow | Serve_replay

let names =
  [
    ("sp-sym-flow", Sp_sym_flow);
    ("tree-flow", Tree_flow);
    ("serve-replay", Serve_replay);
  ]

let of_string s = List.assoc_opt s names

(* ---- the two flows --------------------------------------------------- *)

type engine = Sp | Bstar | Hbstar | Esf

let engine_name = function
  | Sp -> "sp"
  | Bstar -> "bstar"
  | Hbstar -> "hbstar"
  | Esf -> "esf"

(* Whether the engine builds every symmetry group exactly. The flat
   B*-tree anneal does not, so its AL214 findings are counted as
   violations instead of failing the run. *)
let claims_symmetry = function Sp | Hbstar | Esf -> true | Bstar -> false

(* Metric key of a Table-I label: "Folded casc." -> "folded-casc". *)
let circuit_key label =
  String.lowercase_ascii label
  |> String.to_seq
  |> Seq.filter_map (function
       | ' ' -> Some '-'
       | ('a' .. 'z' | '0' .. '9' | '-') as c -> Some c
       | _ -> None)
  |> String.of_seq

let table1_labels =
  List.map
    (fun (b : Netlist.Benchmarks.bench) -> b.Netlist.Benchmarks.label)
    (Netlist.Benchmarks.table1_suite ())

let table1_keys = List.map circuit_key table1_labels

type flow_job = {
  id : int;
  label : string;  (** Table-I circuit label *)
  engine : engine;
  anneal_seed : int;
}

let engines_of = function
  | Sp_sym_flow -> [ Sp ]
  | Tree_flow -> [ Bstar; Hbstar; Esf ]
  | Serve_replay -> []

(* How many job lists a flow run cycles through, one per pass. The
   lists differ only in their anneal seeds, and on sp-sym-flow a job's
   cost follows its seed: the symmetric packer's cost per move differs
   up to tenfold between the codes an anneal visits (miller-v2 takes
   0.1 s on one seed and 0.9 s on the next), and over ten seeds one
   list's pass time spread by 15% (IQR over median). A run that covers
   four lists, and reports the mean of their pass times, evens that
   draw out; four 9-second passes fit a 40-second run. On tree-flow the
   seed moves little (ESF draws nothing, HB*-tree has a fixed budget):
   one list, so a run is not stretched to three forced 12-second
   passes. *)
let job_sets = function Sp_sym_flow -> 4 | Tree_flow | Serve_replay -> 1

(* The job lists of a run: the same circuits and engines in the same
   order in every list, each job with its own anneal seed. Smoke passes
   keep the two smallest circuits. *)
let flow_job_sets ?(smoke = false) workload seed =
  let rng = Prelude.Rng.create seed in
  let labels =
    if smoke then List.filteri (fun i _ -> i < 2) table1_labels
    else table1_labels
  in
  List.init (job_sets workload) (fun _ ->
      List.concat_map
        (fun label ->
          List.map
            (fun engine -> (label, engine, Prelude.Rng.int rng 1_000_000))
            (engines_of workload))
        labels
      |> List.mapi (fun id (label, engine, anneal_seed) ->
             { id; label; engine; anneal_seed }))

(* The fixed move budget of the constrained SP anneal and of the
   HB*-tree anneal: [rounds] x [moves] Metropolis steps with freezing
   disabled (frozen_rounds = max_rounds, final temperature 0), started
   at a temperature proportional to the module area instead of the
   64-move estimate. The work then depends on the budget, not on how
   fast a seed converges. *)
let budget_params ~rounds ~moves circuit =
  {
    (Anneal.Sa.default_params ~n:(Netlist.Circuit.size circuit)) with
    Anneal.Sa.initial_temperature =
      Some (0.05 *. float_of_int (Netlist.Circuit.total_module_area circuit));
    final_temperature = 0.0;
    moves_per_round = moves;
    frozen_rounds = rounds;
    max_rounds = rounds;
  }

(* The large circuits get 3 rounds of max(16, 1600/n) moves, all a pass
   can afford while the packer costs milliseconds per move there. The
   small ones (n <= 16) cost tens of microseconds per move, so they get
   a cooled anneal of 60 rounds at the default round length: with only
   a few hot rounds they would stay near their random start, whose QoR
   swings with the seed. *)
let sp_budget ~smoke circuit =
  let n = Netlist.Circuit.size circuit in
  if smoke then (1, 8)
  else if n <= 16 then (60, (Anneal.Sa.default_params ~n).Anneal.Sa.moves_per_round)
  else (3, max 16 (1600 / n))
let hbstar_budget ~smoke = if smoke then (1, 16) else (4, 64)

(* The one job whose route overflow is a known defect rather than a
   failure (README.md, "Known defects"). *)
let known_overflow job = job.engine = Bstar && job.label = "biasynth"

(* ---- the service replay --------------------------------------------- *)

type req_class = Free | Fitting | Infeasible

let class_name = function
  | Free -> "free"
  | Fitting -> "fitting"
  | Infeasible -> "infeasible"

type request = {
  cls : req_class;
  req : Service.Request.t;
  module_area : int;
}

(* The unique keys of one pass: (source, class) slots. Each key is
   requested three times, so two thirds of the stream are cache hits
   (negative-cache hits for the infeasible keys). A miss costs what its
   design and request seed cost, from 15 ms to most of a second, so a
   key set drawn from the workload seed would make the pass time a
   lottery: the keys (design, request seed) are fixed, and the workload
   seed draws the outlines and the order of the stream. *)
type slot = Named of string | Syn of int * int  (** modules, design seed *)

let syn_pool =
  [ (4, 1); (4, 2); (5, 1); (5, 2); (6, 1); (6, 2); (7, 1); (7, 2);
    (8, 1); (8, 2); (9, 1); (10, 1); (10, 2); (12, 1); (14, 1); (16, 1) ]

let slots ~smoke =
  if smoke then
    [ (Named "comparator-v2", Free); (Syn (6, 1), Fitting); (Named "miller", Infeasible) ]
  else
    let named = [ "miller"; "fig2"; "comparator-v2"; "miller-v2" ] in
    let both slot = [ (slot, Free); (slot, Fitting) ] in
    List.concat
      [
        List.concat_map (fun b -> both (Named b)) named;
        List.concat_map (fun (n, s) -> both (Syn (n, s))) syn_pool;
        List.map (fun b -> (Named b, Infeasible)) named;
        List.map (fun (n, s) -> (Syn (n, s), Infeasible)) [ (6, 3); (8, 3); (10, 3); (14, 2); (16, 2) ];
      ]

let resolve source =
  match Service.Request.resolve_source source with
  | Ok b -> b
  | Error msg -> failwith msg

(* An outline the circuit provably cannot use (its area is below the
   module area: AL201), or a loose one it fits comfortably in, with a
   seeded aspect. *)
let outline_of rng cls (b : Netlist.Benchmarks.bench) =
  let c = b.Netlist.Benchmarks.circuit in
  let area = float_of_int (Netlist.Circuit.total_module_area c) in
  let maxdim =
    Array.fold_left
      (fun m (md : Netlist.Circuit.module_) ->
        max m (max md.Netlist.Circuit.w md.Netlist.Circuit.h))
      0 c.Netlist.Circuit.modules
  in
  match cls with
  | Free -> None
  | Infeasible ->
      let frac = 0.3 +. Prelude.Rng.float rng 0.3 in
      let aspect = 0.7 +. Prelude.Rng.float rng 0.7 in
      Some
        ( max 1 (int_of_float (sqrt (area *. frac *. aspect))),
          max 1 (int_of_float (sqrt (area *. frac /. aspect))) )
  | Fitting ->
      let aspect = 0.8 +. Prelude.Rng.float rng 0.4 in
      let side = sqrt (3.0 *. area) in
      Some
        ( maxdim + int_of_float (side *. aspect),
          maxdim + int_of_float (side /. aspect) )

let requests ?(smoke = false) seed =
  let rng = Prelude.Rng.create seed in
  let keys =
    List.mapi
      (fun k (slot, cls) ->
        let source =
          match slot with
          | Named b -> Service.Request.Bench b
          | Syn (n, seed) -> Service.Request.Synthetic { n; seed }
        in
        let b = resolve source in
        let outline = outline_of rng cls b in
        let req =
          {
            Service.Request.id = "";
            source;
            outline;
            effort = Service.Fingerprint.Quick;
            (* distinct per key, so no two keys share a cache entry *)
            seed = k;
          }
        in
        {
          cls;
          req;
          module_area = Netlist.Circuit.total_module_area b.Netlist.Benchmarks.circuit;
        })
      (slots ~smoke)
  in
  let stream = Array.of_list (List.concat_map (fun k -> [ k; k; k ]) keys) in
  Prelude.Rng.shuffle rng stream;
  Array.to_list stream
  |> List.mapi (fun i r ->
         { r with req = { r.req with Service.Request.id = Printf.sprintf "r%d" i } })

(* The request without its id: identical content means an identical
   cache key, so every repeat must return the first response's result
   byte for byte. *)
let content_key (r : request) =
  Telemetry.Json.emit (Service.Request.to_json { r.req with Service.Request.id = "" })
