type context = { trace_id : int; span_id : int; depth : int }

type event = {
  name : string;
  ph : string; (* "X" complete, "i" instant *)
  ts : float; (* microseconds since [origin] *)
  dur : float; (* microseconds; 0 for instants *)
  tid : int;
  attrs : (string * Json.t) list;
  trace : (int * int * int) option; (* trace id, span id, parent span id *)
}

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let lock = Mutex.create ()
let capacity = ref 65536
let buffer : event list ref = ref [] (* newest first *)
let count = ref 0
let dropped = ref 0

(* Timestamps are relative to process start so traces from consecutive runs
   line up near zero in the viewer. *)
let origin = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. origin) *. 1e6

let set_capacity n =
  Mutex.protect lock (fun () -> capacity := max 1 n)

let clear () =
  Mutex.protect lock (fun () ->
      buffer := [];
      count := 0;
      dropped := 0)

let record ev =
  Mutex.protect lock (fun () ->
      if !count >= !capacity then incr dropped
      else begin
        buffer := ev :: !buffer;
        incr count
      end)

let tid () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Request-scoped trace contexts.

   A trace is a process-local tree of spans rooted at a context handed out
   by [start_trace].  Contexts are propagated two ways: explicitly (stored
   in a job record and reinstalled on the executing thread) and ambiently
   (a per-(domain, thread) table consulted by [with_]/[instant], so every
   existing span call site joins an active trace without signature
   changes).  Scheduler workers are systhreads sharing domain 0, so the
   ambient key must include the thread id — [Domain.DLS] alone would make
   all workers share one slot. *)

let next_trace_id = Atomic.make 1
let next_span_id = Atomic.make 1

type trace_buf = {
  mutable t_events : event list; (* newest first *)
  mutable t_count : int;
  mutable t_dropped : int;
}

let trace_lock = Mutex.create ()
let traces : (int, trace_buf) Hashtbl.t = Hashtbl.create 8

(* Fast-path guard: when zero traces are live and global recording is off,
   [with_] is one Atomic.get + one branch. *)
let traces_active = Atomic.make 0
let trace_capacity = ref 8192
let set_trace_capacity n = trace_capacity := max 16 n

(* Once a trace buffer is full, spans at or above this depth are dropped
   (and counted) while shallow structural spans are still kept, so the
   tree returned on the wire keeps its skeleton under event storms. *)
let keep_depth = 4

let ambient : (int * int, context) Hashtbl.t = Hashtbl.create 16
let ambient_lock = Mutex.create ()
let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current () =
  if Atomic.get traces_active = 0 then None
  else
    let k = self_key () in
    Mutex.protect ambient_lock (fun () -> Hashtbl.find_opt ambient k)

let tracing () = !enabled_flag || current () <> None

let with_ambient ctx f =
  let k = self_key () in
  let swap v =
    Mutex.protect ambient_lock (fun () ->
        let prev = Hashtbl.find_opt ambient k in
        (match v with
        | Some c -> Hashtbl.replace ambient k c
        | None -> Hashtbl.remove ambient k);
        prev)
  in
  let prev = swap ctx in
  Fun.protect ~finally:(fun () -> ignore (swap prev)) f

let start_trace () =
  let id = Atomic.fetch_and_add next_trace_id 1 in
  Mutex.protect trace_lock (fun () ->
      Hashtbl.replace traces id { t_events = []; t_count = 0; t_dropped = 0 });
  Atomic.incr traces_active;
  { trace_id = id; span_id = 0; depth = 0 }

let trace_record trace_id depth ev =
  Mutex.protect trace_lock (fun () ->
      match Hashtbl.find_opt traces trace_id with
      | None -> () (* trace already finished or discarded: drop silently *)
      | Some b ->
          if b.t_count < !trace_capacity || depth <= keep_depth then begin
            b.t_events <- ev :: b.t_events;
            b.t_count <- b.t_count + 1
          end
          else b.t_dropped <- b.t_dropped + 1)

let remove_trace id =
  Mutex.protect trace_lock (fun () ->
      match Hashtbl.find_opt traces id with
      | None -> None
      | Some b ->
          Hashtbl.remove traces id;
          Atomic.decr traces_active;
          Some b)

let discard_trace ctx = ignore (remove_trace ctx.trace_id)

let span_json_tree b =
  let evs = List.rev b.t_events in
  let ids = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev.trace with
      | Some (_, sid, _) -> Hashtbl.replace ids sid ()
      | None -> ())
    evs;
  let children : (int, event list) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun ev ->
      match ev.trace with
      | None -> ()
      | Some (_, _, parent) ->
          (* Orphans (parent span not recorded, e.g. dropped) surface as
             roots rather than vanishing. *)
          if parent <> 0 && Hashtbl.mem ids parent then
            Hashtbl.replace children parent
              (ev :: (Option.value (Hashtbl.find_opt children parent) ~default:[]))
          else roots := ev :: !roots)
    evs;
  let by_ts l = List.sort (fun a b -> compare a.ts b.ts) l in
  let rec node ev =
    let sid = match ev.trace with Some (_, s, _) -> s | None -> 0 in
    let kids =
      by_ts (List.rev (Option.value (Hashtbl.find_opt children sid) ~default:[]))
    in
    Json.Obj
      ([
         ("name", Json.String ev.name);
         ("ts_us", Json.Float ev.ts);
         ("dur_us", Json.Float ev.dur);
       ]
      @ (if ev.attrs = [] then [] else [ ("attrs", Json.Obj ev.attrs) ])
      @
      if kids = [] then [] else [ ("children", Json.List (List.map node kids)) ])
  in
  List.map node (by_ts (List.rev !roots))

let finish_trace ctx =
  match remove_trace ctx.trace_id with
  | None ->
      Json.Obj
        [
          ("trace_id", Json.Int ctx.trace_id);
          ("dropped", Json.Int 0);
          ("spans", Json.List []);
        ]
  | Some b ->
      Json.Obj
        [
          ("trace_id", Json.Int ctx.trace_id);
          ("dropped", Json.Int b.t_dropped);
          ("spans", Json.List (span_json_tree b));
        ]

let record_at ?(attrs = []) ctx name ~ts_us ~dur_us =
  let sid = Atomic.fetch_and_add next_span_id 1 in
  let ev =
    {
      name;
      ph = "X";
      ts = ts_us;
      dur = dur_us;
      tid = tid ();
      attrs;
      trace = Some (ctx.trace_id, sid, ctx.span_id);
    }
  in
  trace_record ctx.trace_id (ctx.depth + 1) ev;
  if !enabled_flag then record ev

(* ------------------------------------------------------------------ *)

let with_ ?(attrs = []) ?start_us name f =
  let amb = current () in
  if (not !enabled_flag) && amb = None then f ()
  else begin
    let t0 = match start_us with Some t -> t | None -> now_us () in
    let child =
      Option.map
        (fun c ->
          {
            trace_id = c.trace_id;
            span_id = Atomic.fetch_and_add next_span_id 1;
            depth = c.depth + 1;
          })
        amb
    in
    let finish () =
      let t1 = now_us () in
      let trace =
        match (amb, child) with
        | Some p, Some c -> Some (c.trace_id, c.span_id, p.span_id)
        | _ -> None
      in
      let ev = { name; ph = "X"; ts = t0; dur = t1 -. t0; tid = tid (); attrs; trace } in
      if !enabled_flag then record ev;
      match child with
      | Some c -> trace_record c.trace_id c.depth ev
      | None -> ()
    in
    let run () =
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt
    in
    match child with Some _ -> with_ambient child run | None -> run ()
  end

let instant ?(attrs = []) name =
  let amb = current () in
  if !enabled_flag || amb <> None then begin
    let trace, depth =
      match amb with
      | Some c ->
          ( Some (c.trace_id, Atomic.fetch_and_add next_span_id 1, c.span_id),
            c.depth + 1 )
      | None -> (None, 0)
    in
    let ev = { name; ph = "i"; ts = now_us (); dur = 0.; tid = tid (); attrs; trace } in
    if !enabled_flag then record ev;
    match amb with Some c -> trace_record c.trace_id depth ev | None -> ()
  end

let events_recorded () = Mutex.protect lock (fun () -> !count)

let event_json ev =
  let base =
    [
      ("name", Json.String ev.name);
      ("cat", Json.String "tiling");
      ("ph", Json.String ev.ph);
      ("ts", Json.Float ev.ts);
      ("pid", Json.Int (Unix.getpid ()));
      ("tid", Json.Int ev.tid);
    ]
  in
  let dur = if ev.ph = "X" then [ ("dur", Json.Float ev.dur) ] else [] in
  let scope = if ev.ph = "i" then [ ("s", Json.String "t") ] else [] in
  let attrs =
    match ev.trace with
    | None -> ev.attrs
    | Some (t, s, p) ->
        ev.attrs
        @ [
            ("trace_id", Json.Int t);
            ("span_id", Json.Int s);
            ("parent_span_id", Json.Int p);
          ]
  in
  let args = if attrs = [] then [] else [ ("args", Json.Obj attrs) ] in
  Json.Obj (base @ dur @ scope @ args)

let to_chrome_json () =
  let evs, n_dropped =
    Mutex.protect lock (fun () -> (List.rev !buffer, !dropped))
  in
  let events = List.map event_json evs in
  let events =
    if n_dropped = 0 then events
    else
      events
      @ [
          Json.Obj
            [
              ("name", Json.String "tiling.trace.dropped");
              ("cat", Json.String "tiling");
              ("ph", Json.String "i");
              ("ts", Json.Float (now_us ()));
              ("pid", Json.Int (Unix.getpid ()));
              ("tid", Json.Int 0);
              ("s", Json.String "g");
              ("args", Json.Obj [ ("dropped", Json.Int n_dropped) ]);
            ];
        ]
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let write_chrome file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_chrome_json ())))
