(** The chain driver shared by {!Sa_seqpair}, {!Sa_bstar} and
    {!Sa_tcg}, and their common outcome record. *)

type outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;  (** rounds of the winning chain *)
  evaluated : int;  (** total cost evaluations, all chains *)
}

val validate_or_env : bool option -> bool
(** An explicit [validate] flag, else the [ANALOG_VALIDATE=1]
    environment switch ({!Analysis.Invariant.enabled_from_env}). *)

val place :
  engine:string ->
  params:Anneal.Sa.params option ->
  workers:int option ->
  chains:int option ->
  mode:[ `Deterministic | `Async ] ->
  validate:bool option ->
  telemetry:Telemetry.Sink.t ->
  rng:Prelude.Rng.t ->
  audit:('s -> unit) ->
  evaluate:('s -> Placement.t) ->
  Netlist.Circuit.t ->
  (validate:bool ->
  Telemetry.Sink.t ->
  Prelude.Rng.t ->
  's Anneal.Sa.mproblem) ->
  outcome
(** Anneal [circuit] and materialize the best state with [evaluate].
    [params] defaults to {!Anneal.Sa.default_params} for the circuit
    size; [validate] to {!validate_or_env}. It is passed to the
    problem factory, and when on [audit] also checks every parallel
    exchange.

    Without [workers] and [chains] one chain runs on [rng] directly.
    Otherwise {!Anneal.Parallel.run} runs [chains] chains (default
    [workers], default {!Anneal.Parallel.default_workers}) in [mode],
    on seeds drawn from [rng] — so a fixed caller seed gives the same
    result for any [workers] value in deterministic mode. [engine]
    tags the per-chain QoR records. *)
