(** The attempt-lifecycle decoder: one per-thread reading of the
    {!Machine.event} stream, shared by every consumer that needs to know
    what a thread is in the middle of.

    A transaction attempt runs its prefix speculatively, may take one
    advisory lock at an ALP (after a wait episode when the lock is held),
    runs its suffix serialized, and ends in a commit or an abort; between
    attempts a thread may back off, and in serving runs it brackets each
    request with a dispatch and a done. The decoder tracks exactly that,
    per thread, in mutable fields with [-1] as the "nothing open"
    sentinel (event ids and timestamps are non-negative), so stepping it
    allocates nothing.

    Consumers read a thread's state {e before} handing it the event:

    {[
      let th = Lifecycle.thread d (Lifecycle.event_tid ev) in
      (* ... close spans from th's fields ... *)
      ignore (Lifecycle.step d th ~time ev)
    ]}

    Protocol violations (a commit with no open attempt, a lock released
    that is not held, a clock running backwards, ...) go to the
    [violation] callback as one message each; the trace checker collects
    them, the exporters pass none. *)

type thread = private {
  tid : int;
  mutable ab : int;  (** atomic block of the open attempt; [-1]: none open *)
  mutable stm : bool;  (** the open attempt runs in the software tier *)
  mutable attempt : int;  (** attempt number of the open attempt *)
  mutable probe : bool;
  mutable start : int;  (** when the open attempt began *)
  mutable lock : int;  (** advisory lock held; [-1]: none *)
  mutable lock_line : int;
  mutable lock_since : int;
  mutable acquires : int;  (** advisory-lock acquires in this attempt *)
  mutable first_acquire : int;  (** time of the first one; [-1]: none *)
  mutable wait_lock : int;  (** lock of the open wait episode; [-1]: none *)
  mutable wait_since : int;
  mutable waited : int;  (** closed wait-episode cycles in this attempt *)
  mutable backoff_since : int;  (** start of the open backoff; [-1]: none *)
  mutable req : int;  (** request in flight; [-1]: none *)
  mutable req_since : int;
  mutable last_time : int;  (** last timestamp seen on this thread *)
  mutable last_ab : int;
      (** atomic block of the last begin, abort or irrevocable entry: the
          block a following backoff belongs to *)
}

type t

val create : ?threads:int -> ?violation:(string -> unit) -> unit -> t
(** With [threads] the decoder covers exactly tids [0, threads), and an
    event naming any other thread is a violation. Without it the thread
    array grows on demand and only negative tids fall outside. *)

val event_tid : Machine.event -> int
(** The thread an event belongs to. *)

val thread : t -> int -> thread
(** The state of thread [tid] before its next event. A tid the decoder
    does not cover gets a detached record with nothing open. *)

val step : t -> thread -> time:int -> Machine.event -> bool
(** Advance [thread] (from {!thread}, for the event's tid) past one event,
    reporting any protocol violation. [false] when the tid is not covered:
    the event was reported and skipped. *)

val finish : t -> unit
(** Report every attempt, backoff and request still open. *)

val abort_label : Machine.abort_kind -> string
(** ["conflict"], ["lock_subscription"], ["capacity"], ["explicit"] or
    ["stm_conflict"]. *)

val stm_abort_label : Machine.stm_abort_kind -> string
(** ["stm_validation"], ["stm_hw_owned"], ["stm_lock_subscription"] or
    ["stm_explicit"]. *)
