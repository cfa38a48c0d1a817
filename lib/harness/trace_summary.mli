(** Summarize a JSONL coherence trace (the [repro --trace FILE] output).

    Reads the single-line JSON objects written by
    {!Ccdsm_tempest.Trace.jsonl_sink} and renders aggregate tables: event
    counts by type, message count/volume/size/priced-cost distributions by
    kind (payload-size histograms on {!Ccdsm_obs.Obs.Histogram.default_edges}
    and cost histograms on the same edges mapped through
    {!Ccdsm_tempest.Network.msg_cost} under [Network.default]), fault and
    presend totals.  A line counts when it parses as a JSON object with a
    string ["type"]; other fields are optional, so partial traces still
    summarize. *)

val of_channel : in_channel -> string
(** Consume the channel to EOF and render the summary. *)

val of_file : string -> string
(** [of_channel] over the named file. *)

val summarize_file : string -> (string, string) result
(** Like {!of_file} but with error reporting instead of exceptions: [Error]
    when the file cannot be opened, contains no events at all, or contains
    lines that do not parse as trace events (blank lines are ignored). *)
