module Json = Tiling_obs.Json

let version = 1

type request = { id : Json.t; meth : string; params : Json.t }

type code =
  | Bad_request
  | Unknown_method
  | Unsupported_version
  | Overloaded
  | Draining
  | Deadline_exceeded
  | Payload_too_large
  | Internal

let code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_method -> "unknown_method"
  | Unsupported_version -> "unsupported_version"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Deadline_exceeded -> "deadline_exceeded"
  | Payload_too_large -> "payload_too_large"
  | Internal -> "internal"

let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_method" -> Some Unknown_method
  | "unsupported_version" -> Some Unsupported_version
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "payload_too_large" -> Some Payload_too_large
  | "internal" -> Some Internal
  | _ -> None

type error = { code : code; message : string; retry_after_s : float option }

let err ?retry_after_s code message = { code; message; retry_after_s }

let request_of_json j =
  match j with
  | Json.Obj _ -> (
      let id = Option.value (Json.member "id" j) ~default:Json.Null in
      match Json.member "v" j with
      | Some (Json.Int v) when v = version -> (
          match Json.member "method" j with
          | Some (Json.String meth) -> (
              match Json.member "params" j with
              | None -> Ok { id; meth; params = Json.Obj [] }
              | Some (Json.Obj _ as params) -> Ok { id; meth; params }
              | Some _ -> Error (err Bad_request "params must be an object"))
          | Some _ -> Error (err Bad_request "method must be a string")
          | None -> Error (err Bad_request "missing method"))
      | Some (Json.Int v) ->
          Error
            (err Unsupported_version
               (Printf.sprintf "wire version %d not supported (this daemon speaks %d)"
                  v version))
      | Some _ -> Error (err Bad_request "v must be an integer")
      | None -> Error (err Bad_request "missing envelope version v"))
  | _ -> Error (err Bad_request "request must be a JSON object")

(* [coalesced] marks every member of a request group that shared one
   evaluation (docs/SERVER.md "Coalescing and shared stores"): the flag
   sits between [status] and the payload so the envelopes of all members
   stay byte-identical modulo [id]. *)
let coalesced_field coalesced =
  if coalesced then [ ("coalesced", Json.Bool true) ] else []

let ok_response ~id ?(coalesced = false) result =
  Json.Obj
    ([
       ("v", Json.Int version);
       ("id", id);
       ("status", Json.String "ok");
     ]
    @ coalesced_field coalesced
    @ [ ("result", result) ])

let progress_response ~id event =
  Json.Obj
    [
      ("v", Json.Int version);
      ("id", id);
      ("status", Json.String "progress");
      ("event", event);
    ]

let error_response ~id ?(coalesced = false) e =
  let fields =
    [
      ("code", Json.String (code_to_string e.code));
      ("message", Json.String e.message);
    ]
    @
    match e.retry_after_s with
    | Some s -> [ ("retry_after_s", Json.Float s) ]
    | None -> []
  in
  Json.Obj
    ([
       ("v", Json.Int version);
       ("id", id);
       ("status", Json.String "error");
     ]
    @ coalesced_field coalesced
    @ [ ("error", Json.Obj fields) ])

module Params = struct
  let typed name conv params key =
    match Json.member key params with
    | None -> Ok None
    | Some j -> (
        match conv j with
        | Some v -> Ok (Some v)
        | None -> Error (Printf.sprintf "%s must be %s" key name))

  let string params key =
    typed "a string" (function Json.String s -> Some s | _ -> None) params key

  let int params key =
    typed "an integer" (function Json.Int i -> Some i | _ -> None) params key

  let float params key =
    typed "a number"
      (function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None)
      params key

  let bool params key =
    typed "a boolean" (function Json.Bool b -> Some b | _ -> None) params key

  let int_list params key =
    typed "a list of integers"
      (function
        | Json.List items ->
            let ints =
              List.filter_map (function Json.Int i -> Some i | _ -> None) items
            in
            if List.length ints = List.length items then Some ints else None
        | _ -> None)
      params key

  let obj params key =
    typed "an object" (function Json.Obj _ as o -> Some o | _ -> None) params key

  let require r key =
    match r with
    | Ok (Some v) -> Ok v
    | Ok None -> Error (Printf.sprintf "missing required parameter %s" key)
    | Error m -> Error m
end
