(** Generic simulated-annealing engine.

    State type, move generator and cost function are supplied by the
    caller; the engine owns the control loop: Metropolis acceptance,
    temperature schedule, best-so-far tracking and freezing detection.
    All placers in this repository (sequence-pair, B*-tree, HB*-tree,
    TCG, slicing, absolute) and the layout-aware sizing optimizer of §V
    instantiate it.

    There is one engine: a chain over an {!mproblem}, whose working
    state is mutated in place. A functional {!problem} enters it
    through the {!of_problem} adapter; {!run} is that adapter followed
    by the engine. *)

type 'a problem = {
  init : 'a;
  neighbor : Prelude.Rng.t -> 'a -> 'a;
  cost : 'a -> float;
}

type params = {
  initial_temperature : float option;
      (** [None]: estimated from the cost spread of random moves *)
  final_temperature : float;
  moves_per_round : int;  (** Metropolis steps at each temperature *)
  schedule : Schedule.t;
  frozen_rounds : int;
      (** stop after this many consecutive rounds in which the walk is
          effectively frozen: acceptance ratio below 2% and no new
          best found *)
  max_rounds : int;
}

val default_params : n:int -> params
(** Sensible defaults scaled to problem size [n] (moves per round
    [max 64 (8n)]). *)

type 'a outcome = {
  best : 'a;
  best_cost : float;
  rounds : int;
  accepted : int;
  evaluated : int;
}

(** {2 In-place problems}

    An {!mproblem} supplies [propose] (mutate [state] into a
    candidate), [undo] (revert the {e last} propose — called exactly
    once per rejected move, never twice in a row), [cost] (evaluate
    [state] as it stands), and [copy]/[blit] for best-so-far snapshots
    and multi-start exchange. *)

type 'a mproblem = {
  state : 'a;
  propose : Prelude.Rng.t -> 'a -> unit;
  undo : 'a -> unit;
  cost : 'a -> float;
  copy : 'a -> 'a;
  blit : src:'a -> dst:'a -> unit;
}

type 'a cell = { mutable current : 'a; mutable previous : 'a }
(** The working state of an adapted functional problem: [current] is
    the walk's state, [previous] the one [undo] restores. *)

val of_problem : 'a problem -> 'a cell mproblem
(** The functional adapter: [propose] replaces [current] by a
    neighbour and remembers the old value, [undo] restores it. The
    rng draws (neighbour, then the acceptance test) come in the same
    order as a walk that copies states, so persistent problems keep
    their trajectories. *)

val estimate_t0 : rng:Prelude.Rng.t -> 'a mproblem -> samples:int -> float
(** Standard deviation of the cost change over [samples] random moves,
    the usual starting temperature heuristic; restores the working
    state before returning. *)

(** {2 Chains}

    The walk, advanced one temperature round at a time so several
    chains can be interleaved and coupled ({!Parallel} runs one chain
    per seed across domains and exchanges bests at round boundaries).
    The decomposition is exact: {!finish} is {!step_round} until
    {!finished}, so stepping a chain by hand reproduces it bit for
    bit. *)

type 'a chain

val start :
  ?telemetry:Telemetry.Sink.t -> rng:Prelude.Rng.t -> params -> 'a mproblem -> 'a chain
(** Evaluate the initial state (and, when [initial_temperature] is
    [None], estimate t0 from 64 random moves on [rng]).

    [telemetry] (default {!Telemetry.Sink.null}) receives one
    ["sa.round"] span, one convergence sample (round, temperature,
    acceptance ratio, best cost) and one ["sa.acceptance"] histogram
    observation per temperature round, plus per-move accept/reject
    tallies through the problem's registered {!Telemetry.Moves.t}.
    Instrumentation draws nothing from the rng, so the walk is
    bit-identical with telemetry on or off (tested); with the null sink
    each hook is a single predictable branch. *)

val finished : 'a chain -> bool
(** True once the round budget, final temperature, or freezing
    criterion is reached. *)

val step_round : 'a chain -> unit
(** One temperature round ([moves_per_round] Metropolis steps followed
    by one schedule update). No-op when [finished]. *)

val best : 'a chain -> 'a
(** The chain's internal best-snapshot buffer. Read-only: it is
    overwritten whenever the chain improves. *)

val best_cost : 'a chain -> float

val adopt : 'a chain -> state:'a -> cost:float -> unit
(** Multi-start exchange: when [cost] strictly improves on the chain's
    best, [state] is blitted into both the working state and the best
    snapshot; no-op otherwise. Strictness means re-offering a chain
    its own {!best} never perturbs it (or aliases a blit), so a solo
    chain is exactly {!finish}. *)

val outcome : 'a chain -> 'a outcome
(** Snapshot of the chain's progress so far; [best] is a fresh [copy],
    safe to keep (or publish to an {!Elite} pool) after the chain
    moves on. *)

val finish : 'a chain -> 'a outcome
(** Step the chain until {!finished}, then its {!outcome}. *)

val run :
  ?telemetry:Telemetry.Sink.t -> rng:Prelude.Rng.t -> params -> 'a problem -> 'a outcome
(** [start] on [of_problem problem], then [finish]; [best] is the
    persistent state itself. [telemetry] as in {!start}. *)
