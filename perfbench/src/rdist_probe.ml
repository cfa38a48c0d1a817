(* The rdist layer as the serve daemon drives it, called in-process: one
   stache profile per app at 8 nodes and 32 B blocks, compiled once, then
   evaluated at every block size a predict job may ask for. *)

module Runtime = Ccdsm_runtime.Runtime
module Machine = Ccdsm_tempest.Machine
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model

type t = { profile_s : (string * float) list; prepare_ms : float; eval_us : float }

let run ~root =
  let timed name attrs f =
    Spans.with_span ~parent:root ~attrs name (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0))
  in
  let per_app =
    List.map
      (fun app ->
        let _, run = Grid.app_run app in
        let cfg = Machine.default_config ~num_nodes:Grid.serve_nodes ~block_bytes:32 () in
        let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
        let (profile, _), profile_s =
          timed "Profile.collect" [ ("app", app) ] (fun () ->
              Profile.collect ~app ~protocol:"stache"
                ~arena_blocks:(Ccdsm_runtime.Shared_heap.arena_blocks (Runtime.heap rt))
                (Runtime.machine rt)
                (fun () -> ignore (run rt)))
        in
        let pr, prepare_s =
          timed "Model.prepare" [ ("app", app) ] (fun () ->
              match Model.prepare profile ~net:Ccdsm_tempest.Network.default ~protocol:Model.Stache with
              | Ok pr -> pr
              | Error msg -> failwith ("Model.prepare: " ^ msg))
        in
        let evals =
          List.map
            (fun block_bytes ->
              snd
                (timed "Model.eval" [ ("app", app); ("block", string_of_int block_bytes) ] (fun () ->
                     match Model.eval pr ~block_bytes with
                     | Ok p -> p
                     | Error msg -> failwith ("Model.eval: " ^ msg))))
            Traffic.predict_blocks
        in
        ((app, profile_s), prepare_s, evals))
      Traffic.apps
  in
  {
    profile_s = List.map (fun (p, _, _) -> p) per_app;
    prepare_ms = 1000.0 *. Stats.median (List.map (fun (_, s, _) -> s) per_app);
    eval_us = 1e6 *. Stats.median (List.concat_map (fun (_, _, e) -> e) per_app);
  }
