(** Driver for [repro check]: a matrix of bounded protocol explorations
    fanned over OCaml domains via {!Parjobs.map}, rendered as one table.

    Each cell explores one {!Ccdsm_check.Model.config} — protocol × fault
    branches on/off — with {!Ccdsm_check.Explore.run}.  Cells are
    independent simulations, so the fan-out is deterministic and the table
    is byte-identical at any job count. *)

module Model = Ccdsm_check.Model
module Explore = Ccdsm_check.Explore

type cell = { cfg : Model.config; depth : int; outcome : Explore.outcome }

val matrix :
  ?protocols:Model.protocol list ->
  ?faults:bool ->
  ?nodes:int ->
  ?blocks:int ->
  unit ->
  Model.config list
(** The verification matrix: each protocol (default: every registered one)
    without fault branches, plus (when [faults], the default) each with
    fault branches. *)

val run : ?jobs:int -> ?seed:int -> ?depth:int -> Model.config list -> cell list
(** Explore every config to [depth] (default 4; fault-branch cells run one
    level shallower to bound the larger alphabet).  [seed] shuffles each
    cell's expansion order — outcomes are order-invariant. *)

val render : cell list -> string
(** The fixed-width result table. *)

val failures : cell list -> Explore.counterexample list
