module Runtime = Ccdsm_runtime.Runtime
module Faults = Ccdsm_tempest.Faults
module Network = Ccdsm_tempest.Network
module Adaptive = Ccdsm_apps.Adaptive
module Barnes = Ccdsm_apps.Barnes
module Barnes_spmd = Ccdsm_apps.Barnes_spmd
module Water = Ccdsm_apps.Water

type scale = Paper | Scaled
type variant = Adaptive | Adaptive_flush | Barnes | Barnes_spmd | Water | Water_splash

type spec = {
  variant : variant;
  scale : scale;
  nodes : int;
  protocol : Runtime.protocol;
  block_bytes : int;
  net : Network.t;
  coalesce : bool;
  conflict_action : [ `Ignore | `First_stable ];
}

let spec ?(nodes = 32) ?(net = Network.default) ?(coalesce = true) ?(conflict_action = `Ignore)
    ~protocol ~block_bytes scale variant =
  { variant; scale; nodes; protocol; block_bytes; net; coalesce; conflict_action }

(* -- data-set sizes and the app table ------------------------------------------- *)

let adaptive_cfg = function
  | Paper -> Adaptive.default
  | Scaled -> { Adaptive.default with Adaptive.n = 96; iterations = 20; refine_every = 4 }

let barnes_cfg = function
  | Paper -> Barnes.default
  | Scaled -> { Barnes.default with Barnes.n_bodies = 2048; iterations = 3 }

let water_cfg = function
  | Paper -> Water.default
  | Scaled -> { Water.default with Water.n_molecules = 256; iterations = 8 }

let run variant scale =
  let a = adaptive_cfg scale and b = barnes_cfg scale and w = water_cfg scale in
  match variant with
  | Adaptive -> fun rt -> (Adaptive.run rt a).Adaptive.checksum
  | Adaptive_flush -> fun rt -> (Adaptive.run ~flush_each_iter:true rt a).Adaptive.checksum
  | Barnes -> fun rt -> (Barnes.run rt b).Barnes.checksum
  | Barnes_spmd -> fun rt -> (Barnes_spmd.run rt b).Barnes.checksum
  | Water -> fun rt -> (Water.run rt w).Water.checksum
  | Water_splash -> fun rt -> (Water.run_splash rt w).Water.checksum

(* The [app] label a metered run merges under. *)
let app = function
  | Adaptive | Adaptive_flush -> "adaptive"
  | Barnes | Barnes_spmd -> "barnes"
  | Water | Water_splash -> "water"

(* -- measurement and the memo ----------------------------------------------------- *)

let simulate ~label s =
  Measure.measure ~num_nodes:s.nodes ~app:(app s.variant)
    (Measure.version ~label ~protocol:s.protocol ~block_bytes:s.block_bytes ~net:s.net
       ~coalesce:s.coalesce ~conflict_action:s.conflict_action (run s.variant s.scale))

(* A spec and the environment's fault plan determine a bare run completely:
   everything else a machine reads at creation is an observer, and observed
   runs never reach the table. *)
let memo : (spec * (Faults.plan option, string) result, Measure.measurement) Hashtbl.t =
  Hashtbl.create 64

let lock = Mutex.create ()

let measure ~label s =
  if Parjobs.observed () then simulate ~label s
  else
    let key = (s, Faults.env_plan ()) in
    match Mutex.protect lock (fun () -> Hashtbl.find_opt memo key) with
    | Some m -> { m with Measure.label }
    | None ->
        let m = simulate ~label s in
        Mutex.protect lock (fun () -> Hashtbl.replace memo key m);
        m

let reset () = Mutex.protect lock (fun () -> Hashtbl.reset memo)
