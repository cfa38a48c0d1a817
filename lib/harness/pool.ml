(* A persistent pool of OCaml 5 domains serving one shared job queue.

   Workers are spawned once, take jobs from the queue, and survive across
   submissions until [shutdown] — the shape a serving process needs to keep
   the machine hot between requests.  Fan-out-and-join over a fixed input
   list is [Parjobs.map]'s, which computes on the calling domain too and so
   needs no pool.

   Determinism contract: which worker runs a job never affects its value,
   only its wall-clock.  Each job's outcome is delivered through its own
   ticket; callers that want completion order (the serving layer) let each
   job publish its own result.

   Every job's outcome is captured — value, or exception with its raw
   backtrace from the worker domain — so a poisonous job can never take a
   worker (or the pool) down, and [await_exn] re-raises at the caller with
   the worker-side raise site intact. *)

(* The queue holds [unit -> unit] thunks: each job computes and stores its
   own result through its ticket, so the queue stays monomorphic while
   tickets are polymorphic. *)
type t = {
  mutex : Mutex.t;
  work : (unit -> unit) Queue.t;
  nonempty : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

type 'a ticket = {
  t_mutex : Mutex.t;
  t_done : Condition.t;
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
}

let size t = Array.length t.workers

let worker pool () =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.work && not pool.stopping do
      Condition.wait pool.nonempty pool.mutex
    done;
    (* Graceful shutdown drains: keep taking work while any is queued, exit
       only once the deque is empty and the stop flag is up. *)
    if Queue.is_empty pool.work then Mutex.unlock pool.mutex
    else begin
      let job = Queue.pop pool.work in
      Mutex.unlock pool.mutex;
      job ();
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Pool.create: domains must be >= 1"
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      mutex = Mutex.create ();
      work = Queue.create ();
      nonempty = Condition.create ();
      stopping = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init domains (fun _ -> Domain.spawn (worker pool));
  pool

let submit pool f =
  let ticket = { t_mutex = Mutex.create (); t_done = Condition.create (); result = None } in
  let job () =
    let r = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
    Mutex.lock ticket.t_mutex;
    ticket.result <- Some r;
    Condition.broadcast ticket.t_done;
    Mutex.unlock ticket.t_mutex
  in
  Mutex.lock pool.mutex;
  if pool.stopping then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job pool.work;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mutex;
  ticket

let await ticket =
  Mutex.lock ticket.t_mutex;
  let rec wait () =
    match ticket.result with
    | Some r -> r
    | None ->
        Condition.wait ticket.t_done ticket.t_mutex;
        wait ()
  in
  let r = wait () in
  Mutex.unlock ticket.t_mutex;
  r

let await_exn ticket =
  match await ticket with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let shutdown pool =
  Mutex.lock pool.mutex;
  let already = pool.stopping in
  pool.stopping <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  if not already then Array.iter Domain.join pool.workers
