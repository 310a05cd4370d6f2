(** The stop-the-world crash protocol that lets real domains emulate the
    paper's {e system-wide} failures.

    A controller arms the crash flag; every worker polls it inside spin
    loops and between lock operations and unwinds with {!Crashed} to its
    top-level handler, losing all passage-local state. Once every live
    worker has parked, the controller advances the epoch and releases
    them — so no process takes algorithm steps between observing the crash
    and the epoch change, which makes the execution equivalent to a
    history of the system-wide failure model: the crash step linearizes
    right after the last pre-park operation.

    The epoch counter is exactly the model's environment-provided failure
    information (Section 2): monotonically increasing, shared by all
    passages between two crashes. *)

exception Crashed

type t

val create : ?spin:Backoff.mode -> ?spin_seed:int -> n:int -> unit -> t
(** [create ~n ()] prepares the protocol for [n] workers (IDs 1..n).
    [spin] picks the waiting policy every spin through this handle uses
    (default {!Backoff.Exponential}; [Relax] and [Spin] are E14's
    ablation references), and [spin_seed] seeds the per-domain backoff
    streams so spin plans replay for a fixed seed. *)

val epoch : t -> int

val check : t -> unit
(** Poll point: raises {!Crashed} if a crash is in progress. Cheap (one
    atomic load). *)

val spin_until : t -> (unit -> bool) -> unit
(** Busy-wait until the condition holds, polling the crash flag on every
    iteration; raises {!Crashed} if a crash is declared while waiting —
    without this, a waiter whose grantor crashed would hang forever.
    Between re-checks the domain's cached {!Backoff} paces the wait
    under the handle's [spin] policy; the hot path allocates nothing. *)

val backoff : t -> Backoff.t
(** This domain's backoff state for this handle (cached in domain-local
    storage, configured from the handle's [spin]/[spin_seed]). Exposed
    for {!Backend.await}'s allocation-free spin; reusing it elsewhere in
    the same domain is safe — spins are never nested. *)

val worker_run : t -> pid:int -> (epoch:int -> unit) -> unit
(** [worker_run t ~pid body] runs [body ~epoch] repeatedly: on {!Crashed}
    it parks until the controller finishes the crash, then re-invokes
    [body] with the new epoch; it returns when [body] returns normally.
    Call it from the worker domain's main loop. *)

val crash : t -> unit
(** Controller side: {!quiesce} then {!release}. Must not be called from
    a worker. *)

val quiesce : t -> unit
(** Controller side, first half of {!crash}: declare a crash and wait
    until every unfinished worker has parked. Until {!release}, no worker
    takes a step and the epoch does not move, so the controller may
    snapshot shared state exactly as the crash left it. *)

val release : t -> unit
(** Controller side, second half of {!crash}: advance the epoch and let
    the parked workers re-enter. Call only after {!quiesce}. *)

val worker_done : t -> pid:int -> unit
(** Mark a worker as finished so {!crash} stops waiting for it. *)
