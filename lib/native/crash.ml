exception Crashed

type t = {
  n : int;
  flag : bool Atomic.t;
  epoch : int Atomic.t;
  parked : int Atomic.t;
  active : int Atomic.t;
  spin_mode : Backoff.mode;
  spin_seed : int;
}

let create ?(spin = Backoff.Exponential) ?(spin_seed = 0) ~n () =
  {
    n;
    flag = Atomic.make false;
    epoch = Atomic.make 1;
    parked = Atomic.make 0;
    active = Atomic.make n;
    spin_mode = spin;
    spin_seed;
  }

let epoch t = Atomic.get t.epoch

let check t = if Atomic.get t.flag then raise Crashed

(* Per-domain backoff state, cached against the crash handle it was
   configured from. Every spin in this domain (spin_until, await, park,
   the controller's quiesce wait) reuses the one instance, so the hot
   path allocates nothing: a DLS read, a physical-equality check, and the
   mutable window update. The instance is rebuilt only when the domain
   first spins, or when it switches to a different crash handle (tests
   create many). Seeds are decorrelated per domain — identical streams
   would make contending waiters collide on every window. *)
let spin_state : (t * Backoff.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let backoff t =
  let r = Domain.DLS.get spin_state in
  match !r with
  | Some (owner, b) when owner == t -> b
  | _ ->
    let b =
      Backoff.create ~mode:t.spin_mode
        ~seed:(t.spin_seed + (31 * (Domain.self () :> int)))
        ()
    in
    r := Some (t, b);
    b

(* Spin politely until [cond] holds, re-checking the crash flag on every
   iteration so a system-wide failure unwinds the waiter promptly. The
   waiting policy between re-checks is the handle's [Backoff] — see
   backoff.ml for why that beats the old fixed relax-and-periodic-sleep
   loop on oversubscribed machines. *)
let spin_until t cond =
  let b = backoff t in
  Backoff.reset b;
  while
    check t;
    not (cond ())
  do
    Backoff.once b
  done

let park t =
  let b = backoff t in
  Backoff.reset b;
  ignore (Atomic.fetch_and_add t.parked 1);
  while Atomic.get t.flag do
    Backoff.once b
  done;
  ignore (Atomic.fetch_and_add t.parked (-1))

let rec worker_run t ~pid body =
  match body ~epoch:(Atomic.get t.epoch) with
  | () -> ()
  | exception Crashed ->
    park t;
    worker_run t ~pid body

let quiesce t =
  Atomic.set t.flag true;
  (* Wait until every live worker has stopped taking steps; only then may
     the epoch advance, which is what makes the failure system-wide. *)
  let b = backoff t in
  Backoff.reset b;
  while Atomic.get t.parked < Atomic.get t.active do
    Backoff.once b
  done

let release t =
  ignore (Atomic.fetch_and_add t.epoch 1);
  Atomic.set t.flag false

let crash t =
  quiesce t;
  release t

let worker_done t ~pid:_ = ignore (Atomic.fetch_and_add t.active (-1))
