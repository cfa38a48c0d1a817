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

let owner_fetch ~node ~home ~owner =
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

type queues = {
  recall : (int * int, int list ref) Hashtbl.t;
  inval : (int * int, int ref) Hashtbl.t;
  data : (int * int, int list ref) Hashtbl.t;
  grant : (int * int, int ref) Hashtbl.t;
}

let queues () =
  {
    recall = Hashtbl.create 16;
    inval = Hashtbl.create 16;
    data = Hashtbl.create 16;
    grant = Hashtbl.create 16;
  }

let push q key b =
  match Hashtbl.find_opt q key with
  | Some l -> l := b :: !l
  | None -> Hashtbl.add q key (ref [ b ])

let bump q key =
  match Hashtbl.find_opt q key with Some r -> incr r | None -> Hashtbl.add q key (ref 1)

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
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  (* A block list as (bytes, blocks) per message. *)
  let block_list blocks =
    let runs = Bulk.runs blocks in
    let n = List.fold_left (fun acc (_, len) -> acc + len) 0 runs in
    if coalesce then [ (run_bytes t n + (8 * List.length runs), n) ]
    else List.init n (fun _ -> (grant_bytes t ~with_data:true, 1))
  in
  let recalls =
    List.concat_map
      (fun ((o, h) as key) ->
        msg h h o Trace.Recall ~grants:0 t.ctrl
        :: List.map
             (fun (bytes, _) -> msg h o h Trace.Data ~grants:0 bytes)
             (block_list !(Hashtbl.find q.recall key)))
      (sorted q.recall)
  in
  let invals =
    List.concat_map
      (fun ((h, r) as key) ->
        [
          msg h h r Trace.Inval ~grants:0 (notice_bytes t !(Hashtbl.find q.inval key));
          msg h r h Trace.Ack ~grants:0 t.ctrl;
        ])
      (sorted q.inval)
  in
  let grants =
    List.concat_map
      (fun ((h, d) as key) ->
        (* Permission-only upgrades to the same destination ride on the
           first data message as 4 more bytes each. *)
        let extra = match Hashtbl.find_opt q.grant key with Some r -> id_bytes !r | None -> 0 in
        List.mapi
          (fun i (bytes, n) ->
            msg h h d Trace.Data ~grants:n (if i = 0 then bytes + extra else bytes))
          (block_list !(Hashtbl.find q.data key)))
      (sorted q.data)
  in
  let upgrades =
    List.filter_map
      (fun ((h, d) as key) ->
        if Hashtbl.mem q.data key then None
        else Some (msg h h d Trace.Grant ~grants:0 (notice_bytes t !(Hashtbl.find q.grant key))))
      (sorted q.grant)
  in
  recalls @ invals @ grants @ upgrades
