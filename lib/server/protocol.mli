(** The daemon's wire protocol: newline-delimited JSON, one request and
    one response per line, over a Unix-domain or TCP stream.

    Every message is a versioned envelope.  Requests look like

    {v {"v":1, "id":7, "method":"tile", "params":{"kernel":"mm"}} v}

    and responses echo the id:

    {v {"v":1, "id":7, "status":"ok", "result":{...}}
       {"v":1, "id":7, "status":"error",
        "error":{"code":"overloaded", "message":"...", "retry_after_s":1.5}} v}

    The full reference lives in docs/SERVER.md.  This module owns the
    envelope: parsing a request out of an untrusted JSON tree, and
    building the two response shapes.  Method parameter schemas belong to
    {!Server}. *)

val version : int
(** Wire version this build speaks: [1]. *)

type request = {
  id : Tiling_obs.Json.t;
      (** echoed verbatim in the response; [String], [Int] or [Null] *)
  meth : string;
  params : Tiling_obs.Json.t;  (** an [Obj]; [Obj []] when absent *)
}

(** Error taxonomy, serialized as snake_case strings on the wire. *)
type code =
  | Bad_request         (** malformed JSON, bad envelope or bad params *)
  | Unknown_method
  | Unsupported_version
  | Overloaded          (** admission reject: queue full; retry later *)
  | Draining            (** daemon is shutting down; do not retry here *)
  | Deadline_exceeded   (** the request's deadline elapsed *)
  | Payload_too_large   (** request line exceeded the daemon's byte cap *)
  | Internal            (** the handler raised; daemon stays up *)

val code_to_string : code -> string

val code_of_string : string -> code option
(** Inverse of {!code_to_string} (used by {!Client}). *)

type error = {
  code : code;
  message : string;
  retry_after_s : float option;
      (** with [Overloaded]: a backoff hint from recent latencies *)
}

val err : ?retry_after_s:float -> code -> string -> error

val request_of_json : Tiling_obs.Json.t -> (request, error) result
(** Validates the envelope: object shape, [v] = {!version}, [method] a
    string, [params] an object when present.  The returned error carries
    whatever [id] could be salvaged (via {!error_response}'s [id]
    argument the caller still echoes it). *)

val ok_response :
  id:Tiling_obs.Json.t -> ?coalesced:bool -> Tiling_obs.Json.t -> Tiling_obs.Json.t
(** [ok_response ~id result] is the success envelope.  [coalesced]
    (default false) adds ["coalesced": true] between [status] and
    [result]: the request shared one evaluation with concurrent identical
    requests, so every envelope of the group is byte-identical modulo
    [id] (docs/SERVER.md "Coalescing and shared stores"). *)

val progress_response :
  id:Tiling_obs.Json.t -> Tiling_obs.Json.t -> Tiling_obs.Json.t
(** [progress_response ~id event] is an interim notification
    [{"v", "id", "status":"progress", "event":{...}}] — zero or more may
    precede the final ok/error response of a request that opted in with
    ["progress": true].  [event] is an {!Tiling_obs.Events.to_json}
    rendering. *)

val error_response :
  id:Tiling_obs.Json.t -> ?coalesced:bool -> error -> Tiling_obs.Json.t
(** [coalesced] as in {!ok_response}: a coalesced group that fails shares
    one error the same way it would have shared one result. *)

(** {2 Typed access to [params]}

    Each accessor returns [Ok None] when the key is absent, and a
    [Bad_request]-worthy message when it is present with the wrong
    type — so optional-with-default and required parameters are both one
    combinator away. *)

module Params : sig
  val string : Tiling_obs.Json.t -> string -> (string option, string) result
  val int : Tiling_obs.Json.t -> string -> (int option, string) result
  val float : Tiling_obs.Json.t -> string -> (float option, string) result
  val bool : Tiling_obs.Json.t -> string -> (bool option, string) result
  val int_list : Tiling_obs.Json.t -> string -> (int list option, string) result

  val obj : Tiling_obs.Json.t -> string -> (Tiling_obs.Json.t option, string) result
  (** The raw sub-object (e.g. ["cache"]). *)

  val require : (('a option, string) result) -> string -> ('a, string) result
  (** [require (string params "kernel") "kernel"] turns absence into an
      error naming the parameter. *)
end
