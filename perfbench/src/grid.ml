(* The workloads' fixed cells.  The figure grids mirror the drivers in
   lib/harness/experiments.ml version for version, so the traced run can
   replay them cell by cell; the traced run compares the rows it rebuilds
   with the rows the drivers return (Batch.figures_digest), so a replay
   that drifted from its driver in app, protocol or block size fails. *)

module Runtime = Ccdsm_runtime.Runtime
module E = Ccdsm_harness.Experiments

let scale = E.Scaled
let figure_nodes = 32
let serve_nodes = 8

let app_run name =
  match
    List.find_opt (fun (n, _, _) -> String.lowercase_ascii n = name) (E.sweep_apps scale)
  with
  | Some (_, races, run) -> (races, run)
  | None -> invalid_arg ("Grid.app_run: " ^ name)

(* Data-set sizes of the two figure versions that run another program than
   the sweep table's app (Experiments keeps its configs private). *)
let barnes_cfg = { Ccdsm_apps.Barnes.default with Ccdsm_apps.Barnes.n_bodies = 2048; iterations = 3 }
let water_cfg = { Ccdsm_apps.Water.default with Ccdsm_apps.Water.n_molecules = 256; iterations = 8 }

let variant_run = function
  | "barnes_spmd" -> fun rt -> (Ccdsm_apps.Barnes_spmd.run rt barnes_cfg).Ccdsm_apps.Barnes.checksum
  | "water_splash" -> fun rt -> (Ccdsm_apps.Water.run_splash rt water_cfg).Ccdsm_apps.Water.checksum
  | name -> snd (app_run name)

type cell = {
  driver : string;  (** the Experiments driver whose grid holds the cell *)
  app : string;  (** expected-table app key *)
  label : string;
  protocol : Runtime.protocol;
  block : int;
}

let cell driver app label protocol block = { driver; app; label; protocol; block }

let fig5 =
  [
    cell "fig5" "adaptive" "C** unoptimized (32)" Runtime.Stache 32;
    cell "fig5" "adaptive" "C** unoptimized (256)" Runtime.Stache 256;
    cell "fig5" "adaptive" "C** optimized (32)" Runtime.Predictive 32;
    cell "fig5" "adaptive" "C** optimized (256)" Runtime.Predictive 256;
  ]

let fig6 =
  [
    cell "fig6" "barnes" "C** unoptimized (32)" Runtime.Stache 32;
    cell "fig6" "barnes" "C** unoptimized (1024)" Runtime.Stache 1024;
    cell "fig6" "barnes" "C** optimized (32)" Runtime.Predictive 32;
    cell "fig6" "barnes" "C** optimized (1024)" Runtime.Predictive 1024;
    cell "fig6" "barnes_spmd" "SPMD write-update (1024)" Runtime.Write_update 1024;
  ]

let water_blocks = [ 32; 64; 128; 256 ]

let fig7 =
  List.concat_map
    (fun (label, app, protocol) ->
      List.map (fun bs -> cell "fig7" app (Printf.sprintf "%s (%d)" label bs) protocol bs) water_blocks)
    [
      ("C** unoptimized", "water", Runtime.Stache);
      ("C** optimized", "water", Runtime.Predictive);
      ("Splash", "water_splash", Runtime.Stache);
    ]

let sweep_blocks = [ 32; 64; 128; 256; 512; 1024 ]

(* block_sweep fans out per (app, block) and measures unopt then opt inside
   each job; the replay keeps that pairing. *)
let block_sweep_pairs =
  List.concat_map
    (fun app ->
      List.map
        (fun bs ->
          [
            cell "block_sweep" app "unopt" Runtime.Stache bs;
            cell "block_sweep" app "opt" Runtime.Predictive bs;
          ])
        sweep_blocks)
    [ "adaptive"; "barnes"; "water" ]

(* Each driver's fan-out jobs, as lists of the cells one job measures. *)
let figure_drivers =
  let one cells = List.map (fun c -> [ c ]) cells in
  [ ("fig5", one fig5); ("fig6", one fig6); ("fig7", one fig7); ("block_sweep", block_sweep_pairs) ]

let figure_cells = List.concat_map (fun (_, jobs) -> List.concat jobs) figure_drivers
