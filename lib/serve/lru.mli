(** Capacity-bounded least-recently-used table keyed by strings: the
    eviction policy shared by {!Deck_cache} and the serving memo.
    Not domain-safe; the serving layer touches it only on the
    coordinating domain. *)

type 'a t

val create : int -> 'a t
(** [create capacity]; capacity 0 keeps nothing. *)

val length : 'a t -> int

val peek : 'a t -> string -> 'a option
(** Lookup without refreshing recency. *)

val find : 'a t -> string -> 'a option
(** Lookup that marks a hit most recently used. *)

val insert : 'a t -> string -> 'a -> int
(** Insert or replace as most recently used, then evict the least
    recently used entries beyond capacity; returns how many were
    evicted.  A no-op returning 0 at capacity 0. *)
