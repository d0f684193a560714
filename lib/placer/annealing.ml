(* The chain driver the topological placers share: one chain on the
   caller's rng, or multi-start chains on drawn seeds. *)

type outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
}

let validate_or_env = function
  | Some v -> v
  | None -> Analysis.Invariant.enabled_from_env ()

let place ~engine ~params ~workers ~chains ~mode ~validate ~telemetry ~rng
    ~audit ~evaluate circuit problem_of =
  let validate = validate_or_env validate in
  let params =
    match params with
    | Some p -> p
    | None -> Anneal.Sa.default_params ~n:(Netlist.Circuit.size circuit)
  in
  match (workers, chains) with
  | None, None ->
      let o =
        Anneal.Sa.finish
          (Anneal.Sa.start ~telemetry ~rng params
             (problem_of ~validate telemetry rng))
      in
      {
        placement = evaluate o.Anneal.Sa.best;
        cost = o.Anneal.Sa.best_cost;
        sa_rounds = o.Anneal.Sa.rounds;
        evaluated = o.Anneal.Sa.evaluated;
      }
  | _ ->
      let k =
        match chains with
        | Some k -> max 1 k
        | None -> (
            match workers with
            | Some w -> max 1 w
            | None -> Anneal.Parallel.default_workers ())
      in
      (* Seeds drawn from the caller's rng: deterministic for a fixed
         seed, distinct streams per chain. *)
      let seeds = List.init k (fun _ -> Prelude.Rng.int rng 0x3FFFFFFF) in
      let check = if validate then Some audit else None in
      let r =
        Anneal.Parallel.run ?workers ~mode ?check ~telemetry ~engine ~seeds
          params (problem_of ~validate)
      in
      {
        placement = evaluate r.Anneal.Parallel.best;
        cost = r.Anneal.Parallel.best_cost;
        sa_rounds =
          r.Anneal.Parallel.chains.(r.Anneal.Parallel.winner).Anneal.Sa.rounds;
        evaluated = r.Anneal.Parallel.evaluated;
      }
