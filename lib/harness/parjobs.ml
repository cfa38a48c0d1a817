(* Multicore fan-out for independent experiment versions.

   Every simulated version owns a private [Machine] (created inside
   [Measure.measure]), so distinct versions share no mutable state and can
   run on OCaml 5 domains.  [map ~jobs] computes on [jobs] domains, the
   caller included: a caller that only waited would be one domain more than
   the computing ones, and every stop-the-world collection waits on all
   domains.  Results are read in input order after the join, so scheduling
   affects only which domain computes a job, never its value, the
   assembled order, or which failure is re-raised.

   The process-global state in a simulation's path is the global trace sink
   ([Trace.set_global]) and the global metrics registry ([Obs.set_global]):
   machines subscribe both at creation, a JSONL sink writes to one channel
   and a registry accumulates into shared instruments, so when either is
   installed the map degrades to sequential execution — the trace byte
   stream and the metrics snapshot stay the deterministic single-threaded
   ones (byte-identical at any job count). *)

(* Absurd job counts (far beyond any real parallelism win) are a
   configuration bug, not a request: reject them at startup with the same
   one-line diagnostic contract as the other env validations (the CLI turns
   the exception into exit 124). *)
let max_jobs () = Domain.recommended_domain_count () * 4

let validate_jobs ~what n =
  if n < 1 then invalid_arg (Printf.sprintf "%s must be a positive integer" what);
  let cap = max_jobs () in
  if n > cap then
    invalid_arg
      (Printf.sprintf
         "%s is %d, above the sanity cap of %d (4x the %d available cores); this smells \
          like a misconfiguration"
         what n cap
         (Domain.recommended_domain_count ()));
  n

let env_jobs () =
  match Sys.getenv_opt "CCDSM_JOBS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> Some (validate_jobs ~what:"CCDSM_JOBS" n)
      | None -> invalid_arg "CCDSM_JOBS must be a positive integer")

let default_jobs () =
  match env_jobs () with Some n -> n | None -> Domain.recommended_domain_count ()

let observed () = Ccdsm_tempest.Trace.global () <> None || Ccdsm_obs.Obs.global () <> None

let map ?jobs f xs =
  let n = List.length xs in
  let jobs = min n (match jobs with Some j -> max 1 j | None -> default_jobs ()) in
  let jobs = if observed () then 1 else jobs in
  if jobs <= 1 then List.map f xs
  else begin
    (* The caller and [jobs - 1] helpers take indices from one counter; each
       slot is written by the domain that took its index, and the joins
       publish the writes to the caller. *)
    let inputs = Array.of_list xs and slots = Array.make n None and next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <- Some (try Ok (f inputs.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers;
    (* In input order: the first failure by input order is re-raised. *)
    List.map
      (fun slot ->
        match Option.get slot with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Array.to_list slots)
  end
