open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace
module Faults = Ccdsm_tempest.Faults
module Obs = Ccdsm_obs.Obs

type metrics = { exchanges : Obs.Counter.t; attempts : Obs.Counter.t }

type t = { machine : Machine.t; dir : Directory.t; cost : Cost.t; mx : metrics option }

let create machine =
  let mx =
    match Machine.obs machine with
    | None -> None
    | Some reg ->
        Some
          {
            exchanges = Obs.Registry.counter reg "ccdsm_engine_exchanges_total";
            attempts = Obs.Registry.counter reg "ccdsm_engine_exchange_attempts_total";
          }
  in
  let cost = Cost.make (Machine.net machine) ~block_bytes:(Machine.block_bytes machine) in
  { machine; dir = Directory.create machine; cost; mx }

let msg_cost t ~bytes = Network.msg_cost (Machine.net t.machine) ~bytes
let fault_cost t = (Machine.net t.machine).Network.fault_us

(* -- reliable request/response exchanges --------------------------------- *)

(* One demand round trip: the listed legs are sent in order and [payer] is
   charged [cost] (the caller's exact cost expression, so fault-free runs
   stay bit-identical to the pre-fault-injection simulator).  With a fault
   injector installed, a dropped leg fails the whole exchange: the payer's
   timer expires (timeout counter, exponential-backoff wait) and every leg
   is retransmitted — real traffic, counted again.  A delayed leg delivers,
   but late enough to trip the timer: the payer absorbs the extra latency
   and accounts a spurious timeout without retransmitting.  Attempts are
   capped: the paper's network (like any real Tempest substrate) is lossy
   but fair, so a retransmission eventually lands. *)

let max_attempts = 8

let exchange t ~bucket ~payer ~block legs ~cost =
  let m = t.machine in
  (match t.mx with Some x -> Obs.Counter.inc x.exchanges | None -> ());
  match Machine.faults m with
  | None ->
      (match t.mx with Some x -> Obs.Counter.inc x.attempts | None -> ());
      List.iter
        (fun (src, dst, kind, bytes) -> Machine.count_msg m ~node:src ~dst ~kind ~bytes ())
        legs;
      Machine.charge m ~node:payer bucket cost
  | Some f ->
      let plan = Faults.plan f in
      let rec attempt k =
        (match t.mx with Some x -> Obs.Counter.inc x.attempts | None -> ());
        let lost = ref false and late = ref false in
        List.iter
          (fun (src, dst, kind, bytes) ->
            match Machine.send_msg m ~node:src ~dst ~kind ~bytes () with
            | Faults.Drop -> lost := true
            | Faults.Delay -> late := true
            | Faults.Deliver | Faults.Duplicate -> ())
          legs;
        Machine.charge m ~node:payer bucket cost;
        if !late then begin
          Machine.note_timeout m ~node:payer;
          Machine.charge m ~node:payer bucket plan.Faults.delay_us
        end;
        if !lost && k < max_attempts then begin
          Machine.note_timeout m ~node:payer;
          Machine.note_retry m ~node:payer;
          Machine.charge m ~node:payer bucket
            (plan.Faults.timeout_us *. float_of_int (1 lsl (k - 1)));
          if Machine.observed m then
            Machine.emit m (Trace.Retry { node = payer; block; attempt = k });
          attempt (k + 1)
        end
      in
      attempt 1

let invalidate t ~node b =
  Machine.note_invalidation t.machine ~node;
  Machine.set_tag t.machine ~node b Tag.Invalid

let downgrade t ~node b =
  Machine.note_downgrade t.machine ~node;
  Machine.set_tag t.machine ~node b Tag.Read_only

let fetch t ~bucket ~payer ~node ~owner b f =
  let home = Machine.home t.machine b in
  exchange t ~bucket ~payer ~block:b
    (Cost.fetch_legs t.cost f ~node ~home ~owner)
    ~cost:(Cost.fetch_us t.cost f)

(* A miss on a block Exclusive at [o]: the copy comes from the owner through
   the home (two legs when either is the home, else the 4-message chain). *)
let owner_fetch t ~bucket ~node ~owner:o b =
  let home = Machine.home t.machine b in
  fetch t ~bucket ~payer:node ~node ~owner:o b (Cost.owner_fetch ~node ~home ~owner:o)

(* -- demand read -------------------------------------------------------- *)

let demand_read t ~bucket ~node b =
  let m = t.machine in
  Machine.charge m ~node bucket (fault_cost t);
  match Directory.get t.dir b with
  | Shared readers ->
      assert (not (Nodeset.mem node readers));
      (* Home memory is current in Shared state. *)
      if node <> Machine.home m b then fetch t ~bucket ~payer:node ~node ~owner:node b Cost.Reply;
      Machine.set_tag m ~node b Tag.Read_only;
      Directory.set t.dir b (Shared (Nodeset.add node readers))
  | Exclusive o ->
      assert (o <> node);
      (* The writer's copy returns to the home memory and the writer stays on
         as a reader (standard Stache downgrade-on-read). *)
      owner_fetch t ~bucket ~node ~owner:o b;
      downgrade t ~node:o b;
      Machine.set_tag m ~node b Tag.Read_only;
      Directory.set t.dir b (Shared (Nodeset.add node (Nodeset.singleton o)))

(* -- invalidation of all other holders ----------------------------------- *)

let invalidate_holders t ~except ~payer ~bucket b =
  let m = t.machine in
  let h = Machine.home m b in
  (match Directory.get t.dir b with
  | Exclusive o when o = except -> ()
  | Exclusive o ->
      (* Recall the dirty copy into home memory, then drop it. *)
      if o <> h then fetch t ~bucket ~payer ~node:h ~owner:o b Cost.Recall;
      invalidate t ~node:o b
  | Shared readers ->
      let others = Nodeset.remove except readers in
      let remote = Nodeset.remove h others in
      let k = Nodeset.cardinal remote in
      if k > 0 then begin
        let count src dst kind bytes = Machine.count_msg m ~node:src ~dst ~kind ~bytes () in
        Nodeset.iter (fun r -> Cost.iter_inval_legs t.cost ~home:h ~victim:r count) remote;
        Machine.charge m ~node:payer bucket (Cost.inval_us t.cost k)
      end;
      Nodeset.iter (fun r -> invalidate t ~node:r b) others);
  Directory.set t.dir b (Exclusive except)

let recall_to_home t ~payer ~bucket b =
  match Directory.get t.dir b with
  | Shared _ -> ()
  | Exclusive o ->
      let h = Machine.home t.machine b in
      if o <> h then fetch t ~bucket ~payer ~node:h ~owner:o b Cost.Recall;
      downgrade t ~node:o b;
      Directory.set t.dir b (Shared (Nodeset.singleton o))

(* -- demand write -------------------------------------------------------- *)

let demand_write t ~bucket ~node b =
  let m = t.machine in
  Machine.charge m ~node bucket (fault_cost t);
  match Directory.get t.dir b with
  | Exclusive o ->
      assert (o <> node);
      owner_fetch t ~bucket ~node ~owner:o b;
      invalidate t ~node:o b;
      Machine.set_tag m ~node b Tag.Read_write;
      Directory.set t.dir b (Exclusive node)
  | Shared readers ->
      (* Request/upgrade leg to the home node: a reader only needs the
         write permission, anyone else the data too. *)
      if node <> Machine.home m b then
        fetch t ~bucket ~payer:node ~node ~owner:node b
          (if Nodeset.mem node readers then Cost.Upgrade else Cost.Reply);
      invalidate_holders t ~except:node ~payer:node ~bucket b;
      Machine.set_tag m ~node b Tag.Read_write;
      Directory.set t.dir b (Exclusive node)

(* -- Stache -------------------------------------------------------------- *)

let stache machine =
  let t = create machine in
  Machine.install machine
    {
      Machine.on_read_fault = (fun ~node b -> demand_read t ~bucket:Machine.Remote_wait ~node b);
      Machine.on_write_fault = (fun ~node b -> demand_write t ~bucket:Machine.Remote_wait ~node b);
    };
  (t, Coherence.traced machine (Coherence.passive ~name:"stache"))
