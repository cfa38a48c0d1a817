(** Serve-mode job specs: the wire format, its canonical form, and the
    content address.

    One job = one simulation request, a flat one-line JSON object:

    {v
    {"id":17,"app":"water","protocol":"predictive","nodes":8,
     "block_bytes":32,"migratory_threshold":1,
     "faults":"drop=0.05,seed=42","scale":"scaled"}
    v}

    Only [app] and [protocol] are required; everything else defaults.  [id]
    is an opaque correlation token echoed back in the response and excluded
    from the content address.  Unknown keys, nested values, out-of-range
    numbers and malformed fault plans are rejected with a one-line message
    (the daemon turns it into a structured per-job error record — a bad
    spec never tears the service down). *)

type spec = {
  kind : [ `Sim | `Predict | `Timeline ];
      (** ["sim"] (default) runs the simulation; ["predict"] answers from
          the first-touch replay model ({!Ccdsm_rdist.Model}) using a
          per-(app, nodes, scale) profile cached daemon-side — cold builds
          the profile with one instrumented run, warm is microseconds.
          Predict keys live in their own ["predict:"] cache namespace.
          ["timeline"] takes no simulation parameters (only [id]) and
          returns the daemon's bounded ring of slow-job span timelines
          ({!Runner.slow_jobs}); it queries server state, so it is
          answered inline and never cached. *)
  app : string;  (** application name, matched case-insensitively *)
  protocol : string;  (** a {!Ccdsm_proto.Registry} name *)
  nodes : int;  (** in [1, Nodeset.max_nodes] (default 8) *)
  block_bytes : int;  (** power of two >= 8 (default 32) *)
  migratory_threshold : int;  (** migratory option record (default 1) *)
  faults : Ccdsm_tempest.Faults.plan option;  (** zero plans normalize to [None] *)
  scale : [ `Scaled | `Paper ];  (** data-set sizes (default [`Scaled]) *)
}

type request = {
  id : string option;  (** the client's [id], re-rendered as a JSON literal *)
  spec : spec;
}

val parse : string -> (request, string) result
(** Parse and validate one spec line.  [Error] carries a client-actionable
    one-line message. *)

val canonical : spec -> string
(** The canonical rendering: fixed key order, defaults filled in, app name
    lowercased, fault plan in {!Ccdsm_tempest.Faults.to_string} form, [id]
    excluded.  Two requests for the same simulation canonicalize to the same
    bytes. *)

val digest : spec -> int64
(** FNV-1a-64 of {!canonical} ({!Ccdsm_util.Fnv}). *)

val key : spec -> string
(** {!digest} as 16 hex digits — the result-cache key. *)

val escape_to_json : string -> string
(** Alias of {!Ccdsm_util.Json.quote}. *)
