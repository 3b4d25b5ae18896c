(** A small fixed pool of OCaml 5 domains with submit/await futures.

    The pool exists so every parallel axis in the synthesizer — trial
    fan-out in {!Tacos.Synthesizer.synthesize}, per-phase sub-synthesis
    fan-out in [Tacos_groups.Plan], and anything a caller adds on top —
    draws from {e one} worker budget instead of each spawning its own
    domains and oversubscribing the machine.

    Design points:

    - {b Spawn-once workers.} [create ~size] spawns [size - 1] worker
      domains up front (the submitting caller acts as the remaining
      worker, see below). Workers block on a condition variable when
      idle; an idle pool costs nothing but the parked domains.
    - {b Helping await.} [await] does not merely block: while its future
      is pending it pops and runs other queued tasks. This makes nested
      submission safe — a pool task may itself submit tasks to the same
      pool and await them (trial parallelism nested inside a group
      sub-synthesis) without deadlocking, even on a pool of size 1,
      because every waiter doubles as a worker.
    - {b Shared global pool.} {!global} returns a lazily created
      process-wide pool sized to [Domain.recommended_domain_count ()]
      and grows it (spawn-once, monotonic) when a caller asks for more
      width. It is shut down via [at_exit].

    Futures are single-assignment; exceptions raised by the task are
    re-raised by every [await] of its future. *)

type t
(** A pool of worker domains. Values of type [t] are safe to share
    across domains. *)

type 'a future
(** The pending result of a submitted task. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] makes a pool that runs up to [size] tasks
    concurrently: [size - 1] spawned worker domains plus the awaiting
    caller. [size] defaults to [Domain.recommended_domain_count ()] and
    is clamped to [\[1; 126\]] (the OCaml runtime caps live domains at
    128). A pool of size 1 spawns no domains; tasks run in the caller
    during [await]. *)

val size : t -> int
(** Current concurrent-task capacity (workers + the awaiting caller). Outside
    this module only tests call it: test_pool's "size-1 runs inline" and "global
    pool is shared and grows". *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task. Tasks start in FIFO order as workers free up.
    @raise Invalid_argument if the pool has been shut down. *)

val await : t -> 'a future -> 'a
(** Wait for a future, running other queued tasks while it is pending
    (helping). Re-raises the task's exception if it failed. *)

val map : t -> (int -> 'a) -> int -> 'a array
(** [map pool f n] submits [f 0 .. f (n-1)] in index order and awaits
    them in index order — the deterministic fan-out primitive. The
    result array order never depends on execution interleaving.
    Concurrency is bounded by the pool's size. *)

val global : ?size:int -> unit -> t
(** The shared process-wide pool. First call creates it (sized
    [Domain.recommended_domain_count ()] by default); [?size] grows it
    to at least that capacity (never shrinks). Shut down automatically
    at process exit. *)

val shutdown : t -> unit
(** Drain queued tasks, stop and join the workers. Subsequent [submit]
    raises; [await] on already-completed futures still works. Calling
    [shutdown] twice is a no-op the second time. Do not call it on
    {!global} (it is managed by [at_exit]). *)
