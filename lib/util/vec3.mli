(** Immutable 3-D vectors for the N-body and molecular-dynamics workloads. *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val dot : t -> t -> float
val norm2 : t -> float
(** Squared Euclidean norm. *)

val dist2 : t -> t -> float
val dist : t -> t -> float
val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
