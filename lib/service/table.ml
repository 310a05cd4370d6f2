(* The sharded lock table: up to millions of logical keys mapped onto a
   bounded number of shards, each shard backed by one native RME lock
   stack from the {!Rme_native.Stack} registry.

   Shards are materialized lazily: the table starts as an array of [None]
   slots and a shard's lock stack is built on the first passage that
   touches it (CAS-install; a losing racer drops its instance and uses
   the winner's). A million-key table therefore costs a million-entry
   option array up front, not a million lock stacks — and after the first
   touch the lookup is one atomic load and a pattern match, so
   materialization stays entirely off the steady-state passage path.

   Monitoring mirrors [Rme_native.Workers] per shard: an occupancy
   counter checked at entry (mutual exclusion across the *logical* shard,
   independent of the lock's own internals), a deliberately-plain
   per-shard counter vs an atomic completion counter (lost updates reveal
   broken exclusion), and a per-shard last-served epoch that the
   crash-recovery drill reads to observe the recovery barrier draining.

   Crash discipline: [acquire] records the holder in a per-pid slot
   *after* the occupancy increment with no crash-poll point in between
   (plain OCaml code cannot raise {!Rme_native.Crash.Crashed}; only
   backend operations poll), so on a crash the worker's re-entry handler
   can call [abandon_held] to release the occupancy monitor exactly when
   it was really held. *)

module Crash = Rme_native.Crash
module Stack = Rme_native.Stack
module Intf = Rme_native.Intf

type t = {
  crash : Crash.t;
  n : int;
  keys : int;
  shards : int;
  stack : string;
  model : Sim.Memory.model;
  padded : bool;
  locks : Intf.rme option Atomic.t array;  (* length [shards] *)
  materialized : int Atomic.t;
  occupancy : int Atomic.t array;
  me_violations : int Atomic.t;
  counter : int array;  (* deliberately plain; see module comment *)
  completions : int Atomic.t array;
  served_epoch : int Atomic.t array;  (* epoch of the last completed
                                         passage; 0 = never served *)
  holding : int array;  (* per pid (index 1..n): shard currently held,
                           -1 = none; single-writer per slot *)
  engaged : int array;  (* per pid: shard whose passage (recover..exit)
                           this pid is inside, -1 = none; spans strictly
                           more than [holding] — see [repair_engaged] *)
}

(* Key -> shard spread: one avalanche round of the fingerprint mix, so
   the Zipf head keys (0, 1, 2, ...) land on unrelated shards the way
   hashed keys would in a real service. Pure int ops — allocation-free
   and identical everywhere, so traffic-shape analysis and the runtime
   agree on the mapping. *)
let shard_of_key ~shards key =
  Sim.Encode.mix 0x5348 key land max_int mod shards

let create ?(model = Sim.Memory.Cc) ?(padded = true) ?(shards = 1024) ~stack
    ~keys ~crash ~n () =
  if shards < 1 then invalid_arg "Table.create: shards must be >= 1";
  if keys < 1 then invalid_arg "Table.create: keys must be >= 1";
  if n < 1 then invalid_arg "Table.create: n must be >= 1";
  (* Fail on an unknown stack now, not on the first unlucky passage. *)
  if not (List.mem stack Stack.recoverable_names) then
    invalid_arg ("Table.create: unknown recoverable stack " ^ stack);
  {
    crash;
    n;
    keys;
    shards;
    stack;
    model;
    padded;
    locks = Array.init shards (fun _ -> Atomic.make None);
    materialized = Atomic.make 0;
    occupancy = Array.init shards (fun _ -> Atomic.make 0);
    me_violations = Atomic.make 0;
    counter = Array.make shards 0;
    completions = Array.init shards (fun _ -> Atomic.make 0);
    served_epoch = Array.init shards (fun _ -> Atomic.make 0);
    holding = Array.make (n + 1) (-1);
    engaged = Array.make (n + 1) (-1);
  }

let shards t = t.shards
let keys t = t.keys
let stack_name t = t.stack
let crash_handle t = t.crash
let materialized t = Atomic.get t.materialized
let me_violations t = Atomic.get t.me_violations

let shard_of t key = shard_of_key ~shards:t.shards key

(* First touch builds the shard's lock; steady state is the [Some] arm. *)
let rec lock_of t shard =
  match Atomic.get t.locks.(shard) with
  | Some l -> l
  | None ->
    let l =
      Stack.recoverable ~model:t.model ~padded:t.padded t.crash ~n:t.n t.stack
    in
    if Atomic.compare_and_set t.locks.(shard) None (Some l) then begin
      ignore (Atomic.fetch_and_add t.materialized 1);
      l
    end
    else lock_of t shard

let acquire t ~pid ~epoch ~shard =
  (* Record the engagement before the first backend operation: from here
     until [release] returns, a crash leaves this pid's state entangled
     with this shard's lock (abandoned CS, enqueued node, stale help
     flag), and the lock's recovery barriers will block *other* pids on
     this pid re-passaging exactly this shard. [repair_engaged] reads it
     on re-entry. *)
  t.engaged.(pid) <- shard;
  let lock = lock_of t shard in
  lock.Intf.recover ~pid ~epoch;
  lock.Intf.enter ~pid ~epoch;
  if Atomic.fetch_and_add t.occupancy.(shard) 1 <> 0 then
    ignore (Atomic.fetch_and_add t.me_violations 1);
  (* No crash-poll point between the increment and this store. *)
  t.holding.(pid) <- shard

(* One request's critical-section work; call between [acquire] and
   [release], any number of times (batching serves several requests
   under one passage). *)
let serve t ~shard =
  t.counter.(shard) <- t.counter.(shard) + 1;
  ignore (Atomic.fetch_and_add t.completions.(shard) 1)

let release t ~pid ~epoch ~shard =
  t.holding.(pid) <- -1;
  ignore (Atomic.fetch_and_add t.occupancy.(shard) (-1));
  Atomic.set t.served_epoch.(shard) epoch;
  (* The lock's own exit can crash-unwind; monitors are already clean. *)
  (match Atomic.get t.locks.(shard) with
  | Some lock -> lock.Intf.exit ~pid ~epoch
  | None -> assert false);
  t.engaged.(pid) <- -1

(* Post-crash: release the occupancy monitor iff this pid died holding a
   shard. Call from the worker's re-entry path before anything else. *)
let abandon_held t ~pid =
  let shard = t.holding.(pid) in
  if shard >= 0 then begin
    t.holding.(pid) <- -1;
    ignore (Atomic.fetch_and_add t.occupancy.(shard) (-1))
  end

(* Post-crash, after [abandon_held]: one recovery passage over the shard
   this pid's crash-unwound passage was entangled with, if any. This MUST
   run before the partition [sweep] (or any other passage): a recovering
   lock parks entrants behind its barriers until the pid that abandoned
   it re-passages it — BR1 waits for the crashed-in-CS owner's exit, BR2
   for the privileged process's entry (Fig. 4 lines 78-86) — so every
   post-crash blocking edge points at a pid engaged with that same shard.
   Repairing the engaged shard first makes those pids arrive
   unconditionally; skip it and two workers sweeping each other's
   abandoned shards deadlock (the E15 drill reproduced this at n=4
   before the protocol gained this step — DESIGN.md §5.17). Idempotent:
   interrupted by another crash, the slot is still set and the repair
   reruns. Returns the passages performed (0 or 1). *)
let repair_engaged t ~pid ~epoch =
  let shard = t.engaged.(pid) in
  if shard < 0 then 0
  else begin
    acquire t ~pid ~epoch ~shard;
    release t ~pid ~epoch ~shard;
    1
  end

(* Recovery sweep: one full passage over every materialized shard in
   this worker's partition (shard mod n = pid - 1), so after a
   system-wide crash the n workers jointly drain the recovery barrier of
   every shard that existed at the crash. Idempotent — a sweep interrupted
   by another crash simply reruns. Returns the passages performed. *)
let sweep t ~pid ~epoch =
  let swept = ref 0 in
  let s = ref (pid - 1) in
  while !s < t.shards do
    (match Atomic.get t.locks.(!s) with
    | Some _ ->
      acquire t ~pid ~epoch ~shard:!s;
      release t ~pid ~epoch ~shard:!s;
      incr swept
    | None -> ());
    s := !s + t.n
  done;
  !swept

(* Drill observation: materialized shards whose last completed passage
   predates [epoch]. The controller snapshots this while the workers are
   parked for the crash, then spins until it reaches zero. *)
let undrained t ~epoch =
  let u = ref 0 in
  for s = 0 to t.shards - 1 do
    match Atomic.get t.locks.(s) with
    | Some _ -> if Atomic.get t.served_epoch.(s) < epoch then incr u
    | None -> ()
  done;
  !u

let completions t =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.completions

let shard_completions t = Array.map Atomic.get t.completions

(* Shards where the plain counter disagrees with the atomic completion
   count — each one is a lost update, i.e. broken mutual exclusion. *)
let lost_update_shards t =
  let bad = ref 0 in
  for s = 0 to t.shards - 1 do
    if t.counter.(s) <> Atomic.get t.completions.(s) then incr bad
  done;
  !bad
