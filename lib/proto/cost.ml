open Ccdsm_util
module Network = Ccdsm_tempest.Network
module Trace = Ccdsm_tempest.Trace

(* The per-fetch prices are fixed per table, so they are computed once;
   each keeps the exact float expression it has always had. *)
type t = {
  net : Network.t;
  ctrl : int;
  data : int;
  ctrl_us : float;
  reply_us : float;
  chain_us : float;
  forward_us : float;
}

let make net ~block_bytes =
  let mc bytes = Network.msg_cost net ~bytes in
  let ctrl = net.Network.ctrl_bytes in
  {
    net;
    ctrl;
    data = block_bytes;
    ctrl_us = mc ctrl;
    reply_us = mc ctrl +. mc block_bytes;
    chain_us = (2.0 *. mc ctrl) +. (2.0 *. mc block_bytes);
    forward_us = (2.0 *. mc ctrl) +. mc block_bytes;
  }

let ctrl t = t.ctrl

type leg = int * int * Trace.msg_kind * int

(* -- demand fetches -------------------------------------------------------- *)

type fetch = Reply | Recall | Chain | Forward | Upgrade

let owner_fetch ~(node : int) ~home ~owner =
  if owner = home then Reply else if node = home then Recall else Chain

let fetch_legs t f ~node ~home ~owner =
  let c = t.ctrl and d = t.data in
  match f with
  | Reply -> [ (node, home, Trace.Req, c); (home, node, Trace.Data, d) ]
  | Recall -> [ (home, owner, Trace.Recall, c); (owner, home, Trace.Data, d) ]
  | Chain ->
      [
        (node, home, Trace.Req, c);
        (home, owner, Trace.Recall, c);
        (owner, home, Trace.Data, d);
        (home, node, Trace.Data, d);
      ]
  | Forward ->
      [ (node, home, Trace.Req, c); (home, owner, Trace.Recall, c); (owner, node, Trace.Data, d) ]
  | Upgrade -> [ (node, home, Trace.Req, c); (home, node, Trace.Grant, c) ]

let fetch_msgs = function Reply | Recall | Upgrade -> 2 | Forward -> 3 | Chain -> 4

let fetch_bytes t = function
  | Reply | Recall -> t.ctrl + t.data
  | Chain -> 2 * (t.ctrl + t.data)
  | Forward -> (2 * t.ctrl) + t.data
  | Upgrade -> 2 * t.ctrl

let fetch_us t = function
  | Reply | Recall -> t.reply_us
  | Chain -> t.chain_us
  | Forward -> t.forward_us
  | Upgrade -> 2.0 *. t.ctrl_us

(* -- invalidations --------------------------------------------------------- *)

(* When one node must emit several invalidations the sends overlap, so each
   extra message adds only its injection overhead. *)
let serialization_factor = 0.25

let iter_inval_legs t ~home ~victim f =
  f home victim Trace.Inval t.ctrl;
  f victim home Trace.Ack t.ctrl
let inval_msgs k = 2 * k
let inval_bytes t k = 2 * k * t.ctrl

let inval_us t k =
  (2.0 *. t.ctrl_us)
  +. (serialization_factor *. t.net.Network.msg_startup_us *. float_of_int (k - 1))

(* -- bulk messages --------------------------------------------------------- *)

(* A batched notice names each block by a 4-byte id. *)
let id_bytes k = 4 * k
let run_bytes t len = t.ctrl + (len * t.data)
let notice_bytes t k = t.ctrl + id_bytes k

(* -- presend --------------------------------------------------------------- *)

let presend_block_us = 1.0
let record_us = 2.0
let grant_bytes t ~with_data = if with_data then run_bytes t 1 else t.ctrl

(* A queue keys each (src, dst) pair as one int, [src] in the high bits,
   so ascending keys are ascending pairs. *)
type 'a queue = 'a ref Inttbl.t

let queue () = Inttbl.create 16

let push q ~src ~dst b =
  let key = Nodeset.pack src ~node:dst in
  match Inttbl.find q key with
  | l -> l := b :: !l
  | exception Not_found -> Inttbl.add q key (ref [ b ])

let bump q ~src ~dst =
  let key = Nodeset.pack src ~node:dst in
  match Inttbl.find q key with
  | r -> incr r
  | exception Not_found -> Inttbl.add q key (ref 1)

(* The (key, item) bindings in ascending key order. *)
let sorted q =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Inttbl.fold (fun key r acc -> (key, !r) :: acc) q [])

let iter_sorted q f =
  List.iter
    (fun (key, x) -> f ~src:(Nodeset.packed_hi key) ~dst:(Nodeset.packed_node key) x)
    (sorted q)

type queues = {
  recall : int list queue;
  inval : int queue;
  data : int list queue;
  grant : int queue;
}

let queues () = { recall = queue (); inval = queue (); data = queue (); grant = queue () }

type msg = {
  payer : int;
  src : int;
  dst : int;
  kind : Trace.msg_kind;
  bytes : int;
  grants : int;
  us : float;
}

let flush t ~coalesce q =
  let msg payer src dst kind ~grants bytes =
    { payer; src; dst; kind; bytes; grants; us = Network.msg_cost t.net ~bytes }
  in
  (* A block list as (bytes, blocks) per message. *)
  let block_list blocks =
    let runs = Bulk.runs blocks in
    let n = List.fold_left (fun acc (_, len) -> acc + len) 0 runs in
    if coalesce then [ (run_bytes t n + (8 * List.length runs), n) ]
    else List.init n (fun _ -> (grant_bytes t ~with_data:true, 1))
  in
  let recalls =
    List.concat_map
      (fun (key, blocks) ->
        let o = Nodeset.packed_hi key and h = Nodeset.packed_node key in
        msg h h o Trace.Recall ~grants:0 t.ctrl
        :: List.map (fun (bytes, _) -> msg h o h Trace.Data ~grants:0 bytes) (block_list blocks))
      (sorted q.recall)
  in
  let invals =
    List.concat_map
      (fun (key, k) ->
        let h = Nodeset.packed_hi key and r = Nodeset.packed_node key in
        [
          msg h h r Trace.Inval ~grants:0 (notice_bytes t k);
          msg h r h Trace.Ack ~grants:0 t.ctrl;
        ])
      (sorted q.inval)
  in
  let grants =
    List.concat_map
      (fun (key, blocks) ->
        let h = Nodeset.packed_hi key and d = Nodeset.packed_node key in
        (* Permission-only upgrades to the same destination ride on the
           first data message as 4 more bytes each. *)
        let extra = match Inttbl.find_opt q.grant key with Some r -> id_bytes !r | None -> 0 in
        List.mapi
          (fun i (bytes, n) ->
            msg h h d Trace.Data ~grants:n (if i = 0 then bytes + extra else bytes))
          (block_list blocks))
      (sorted q.data)
  in
  let upgrades =
    List.filter_map
      (fun (key, k) ->
        let h = Nodeset.packed_hi key and d = Nodeset.packed_node key in
        if Inttbl.mem q.data key then None
        else Some (msg h h d Trace.Grant ~grants:0 (notice_bytes t k)))
      (sorted q.grant)
  in
  recalls @ invals @ grants @ upgrades
