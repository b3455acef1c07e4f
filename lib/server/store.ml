module Memo = Tiling_search.Memo
module Metrics = Tiling_obs.Metrics

let m_hits = Metrics.counter "server.store.hits"
let m_misses = Metrics.counter "server.store.misses"
let m_appends = Metrics.counter "server.store.appends"
let m_compactions = Metrics.counter "server.store.compactions"
let m_refreshes = Metrics.counter "server.store.refreshes"
let m_answer_hits = Metrics.counter "server.store.answer_hits"
let g_entries = Metrics.gauge "server.store.entries"
let g_records = Metrics.gauge "server.store.records"

let header = "tiling-store/1"

type t = {
  path : string;
  mutable fd : Unix.file_descr;  (* O_APPEND writer *)
  lockfd : Unix.file_descr;
      (* [path ^ ".lock"] sidecar carrying the cross-process advisory
         lock.  A dedicated file, not the log itself: fcntl locks die
         with {e any} close of {e any} descriptor on the file within the
         process, and compaction must close/reopen the log. *)
  lock : Mutex.t;
  tables : (string, float Memo.Table.t) Hashtbl.t;
  answers : (string, string) Hashtbl.t;
      (* answer key -> outcome JSON, still percent-escaped: it is only
         unescaped when a lookup hits, so loading the log never pays for
         answers nobody asks for *)
  mutable records : int;
      (* data lines in the log + pending buffer, dead ones included *)
  mutable live : int;
  mutable read_pos : int;  (* log bytes already folded into [tables] *)
  mutable stamp : int * int;  (* (st_dev, st_ino): detects log rotation *)
  pending : Buffer.t;  (* appends not yet written to disk *)
  mutable pending_records : int;
  pending_keys : (string * Memo.Key.t, unit) Hashtbl.t;
      (* keys with an update waiting in [pending].  Folding disk lines
         must never clobber these: our line lands {e after} everything
         we fold, so by the log's last-write-wins order ours is newer —
         critical when a sibling's compaction forces a full re-read of
         our own older, durable records. *)
  pending_answers : (string, unit) Hashtbl.t;  (* the same, for answers *)
  compact_min_dead : int;
  mutable skipped : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  answer_hits : int Atomic.t;
  appends : int Atomic.t;
  compactions : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Cross-process advisory locking.  fcntl (lockf) locks are per-process:
   this serialises daemons sharing one TILING_STORE, while in-process
   callers are already serialised by [t.lock]. *)

let with_file_lock t f =
  ignore (Unix.lseek t.lockfd 0 Unix.SEEK_SET);
  Unix.lockf t.lockfd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.lseek t.lockfd 0 Unix.SEEK_SET);
      try Unix.lockf t.lockfd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

let rec write_sub fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_sub fd s (off + n) (len - n)
  end

let write_fully fd s = write_sub fd s 0 (String.length s)

(* One record is one line, of one of two kinds:
   - [r <fingerprint> <v1,v2,..> <cost>]: one candidate's cost, printed
     as a hex float ("%h") for exact binary round-tripping;
   - [a <answer key> <outcome JSON>]: one search's final answer.
   Keys and JSON are percent-escaped so whitespace and newlines can
   never break framing. *)

let escape s =
  let plain c =
    match c with ' ' | '\n' | '\r' | '\t' | '%' -> false | c -> Char.code c > 0x20
  in
  if String.for_all plain s && s <> "" then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
      s;
    Buffer.contents buf
  end

let unescape s =
  if not (String.contains s '%') then Some s
  else
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else if s.[i] = '%' then
        if i + 3 <= n then
          match (hex s.[i + 1], hex s.[i + 2]) with
          | Some hi, Some lo ->
              Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
              go (i + 3)
          | _ -> None
        else None
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0

let values_to_string values =
  String.concat "," (Array.to_list (Array.map string_of_int values))

let values_of_string s =
  let parts = String.split_on_char ',' s in
  let ints = List.filter_map int_of_string_opt parts in
  if List.length ints = List.length parts && parts <> [] then
    Some (Array.of_list ints)
  else None

let record_line ~fingerprint key cost =
  Printf.sprintf "r %s %s %h" (escape fingerprint)
    (values_to_string (Memo.Key.values key))
    cost

let parse_record line =
  match String.split_on_char ' ' line with
  | [ "r"; fp; vals; cost ] -> (
      match (unescape fp, values_of_string vals, float_of_string_opt cost) with
      | Some fp, Some values, Some cost -> Some (fp, Memo.Key.of_values values, cost)
      | _ -> None)
  | _ -> None

let answer_line ~key escaped_json = Printf.sprintf "a %s %s" (escape key) escaped_json

(* Framing check for an answer payload without parsing it: one JSON
   object whose brackets balance outside strings.  A line cut short
   anywhere (a crashed writer) leaves a bracket or a string open.  The
   escaping only touches whitespace, controls and '%', so the escaped
   text can be scanned as is. *)
let balanced_object s =
  let n = String.length s in
  let rec go i depth in_string =
    if i >= n then depth = 0 && not in_string
    else if depth = 0 && i > 0 then false
    else
      match s.[i] with
      | '\\' when in_string -> go (i + 2) depth true
      | '"' -> go (i + 1) depth (not in_string)
      | _ when in_string -> go (i + 1) depth true
      | '{' | '[' -> go (i + 1) (depth + 1) false
      | '}' | ']' -> depth > 0 && go (i + 1) (depth - 1) false
      | _ -> go (i + 1) depth false
  in
  n > 0 && s.[0] = '{' && go 0 0 false

let parse_answer line =
  let n = String.length line in
  if n < 3 || line.[1] <> ' ' then None
  else
    match String.index_from_opt line 2 ' ' with
    | None -> None
    | Some j -> (
        let payload = String.sub line (j + 1) (n - j - 1) in
        match unescape (String.sub line 2 (j - 2)) with
        | Some key when (not (String.contains payload ' ')) && balanced_object payload
          ->
            Some (key, payload)
        | _ -> None)

let table_for t fingerprint =
  match Hashtbl.find_opt t.tables fingerprint with
  | Some tbl -> tbl
  | None ->
      let tbl = Memo.Table.create 256 in
      Hashtbl.add t.tables fingerprint tbl;
      tbl

let set_gauges t =
  Metrics.set g_entries (float_of_int t.live);
  Metrics.set g_records (float_of_int t.records)

let compact_min_default () =
  match Sys.getenv_opt "TILING_STORE_COMPACT_MIN" with
  | Some s when String.trim s <> "" -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> v
      | _ ->
          invalid_arg
            (Printf.sprintf "TILING_STORE_COMPACT_MIN=%S: expected a positive integer" s))
  | _ -> 1024

(* ------------------------------------------------------------------ *)
(* Disk <-> tables reconciliation.  Every [_locked] function below runs
   with both [t.lock] and the cross-process file lock held. *)

let fold_line t line =
  if line <> "" && line <> header then begin
    t.records <- t.records + 1;
    let well_formed =
      if line.[0] = 'a' then
        match parse_answer line with
        | Some (key, payload) ->
            if not (Hashtbl.mem t.pending_answers key) then begin
              if not (Hashtbl.mem t.answers key) then t.live <- t.live + 1;
              Hashtbl.replace t.answers key payload
            end;
            true
        | None -> false
      else
        match parse_record line with
        | Some (fp, key, cost) ->
            if not (Hashtbl.mem t.pending_keys (fp, key)) then begin
              let tbl = table_for t fp in
              if not (Memo.Table.mem tbl key) then t.live <- t.live + 1;
              Memo.Table.replace tbl key cost
            end;
            true
        | None -> false
    in
    if not well_formed then t.skipped <- t.skipped + 1
  end

let open_writer path =
  Unix.openfile path
    [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
    0o644

(* Another process compacted (temp-file + rename): our descriptor points
   at the orphaned old log.  Re-open, and start folding the replacement
   from byte 0 — the rewrite may contain records we have never seen. *)
let check_rotate_locked t =
  let rotated =
    match Unix.stat t.path with
    | st -> (st.Unix.st_dev, st.Unix.st_ino) <> t.stamp
    | exception Unix.Unix_error _ -> true
  in
  if rotated then begin
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.fd <- open_writer t.path;
    let st = Unix.fstat t.fd in
    if st.Unix.st_size = 0 then write_fully t.fd (header ^ "\n");
    let st = Unix.fstat t.fd in
    t.stamp <- (st.Unix.st_dev, st.Unix.st_ino);
    t.records <- t.pending_records;
    t.read_pos <- 0
  end

(* Fold every byte appended (by anyone) since we last looked.  Writers
   append whole lines under the file lock, so the region [read_pos, EOF)
   is complete lines — except after a writer crashed mid-write, in which
   case the torn tail is skipped and terminated so the next append
   starts a fresh line. *)
let read_new_locked t =
  let data =
    let ic = open_in_bin t.path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        if t.read_pos >= len then ""
        else begin
          seek_in ic t.read_pos;
          really_input_string ic (len - t.read_pos)
        end)
  in
  let n = String.length data in
  let i = ref 0 in
  while !i < n do
    match String.index_from_opt data !i '\n' with
    | Some j ->
        fold_line t (String.sub data !i (j - !i));
        i := j + 1
    | None ->
        (* torn tail from a crashed writer *)
        t.skipped <- t.skipped + 1;
        write_fully t.fd "\n";
        i := n
  done

let write_pending_locked t =
  if Buffer.length t.pending > 0 then begin
    (* One write(2) on an O_APPEND descriptor: the kernel serialises the
       append offset, so even a writer outside our advisory lock could
       not interleave bytes inside this batch. *)
    write_fully t.fd (Buffer.contents t.pending);
    Buffer.clear t.pending;
    t.pending_records <- 0;
    Hashtbl.reset t.pending_keys;
    Hashtbl.reset t.pending_answers
  end;
  (* Own bytes are already in [tables]; never re-read them. *)
  t.read_pos <- (Unix.fstat t.fd).Unix.st_size

(* Rewrite the log from the live tables through a temp file and an
   atomic rename.  Runs after [read_new_locked], so [tables] is a
   superset of every record any process has durably written — compaction
   never drops a sibling's results. *)
let compact_locked t =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (header ^ "\n");
  Hashtbl.iter
    (fun fp tbl ->
      Memo.Table.iter
        (fun key cost ->
          output_string oc (record_line ~fingerprint:fp key cost);
          output_char oc '\n')
        tbl)
    t.tables;
  Hashtbl.iter
    (fun key payload ->
      output_string oc (answer_line ~key payload);
      output_char oc '\n')
    t.answers;
  close_out oc;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  Sys.rename tmp t.path;
  t.fd <- open_writer t.path;
  let st = Unix.fstat t.fd in
  t.stamp <- (st.Unix.st_dev, st.Unix.st_ino);
  t.records <- t.live;
  t.read_pos <- st.Unix.st_size;
  Atomic.incr t.compactions;
  Metrics.incr m_compactions

let disk_changed t =
  match Unix.stat t.path with
  | st ->
      (st.Unix.st_dev, st.Unix.st_ino) <> t.stamp
      || st.Unix.st_size <> t.read_pos
  | exception Unix.Unix_error _ -> true

(* The store's one reconciliation point: flush our pending appends, fold
   everyone else's, maybe compact.  The no-op fast path is a single
   stat(2), so calling this per request is cheap when nothing moved. *)
let flush_locked t ~compact =
  let compact_due () = compact && t.records - t.live >= t.compact_min_dead in
  if Buffer.length t.pending > 0 || disk_changed t || compact_due () then begin
    Metrics.incr m_refreshes;
    with_file_lock t (fun () ->
        check_rotate_locked t;
        read_new_locked t;
        write_pending_locked t;
        if compact_due () then compact_locked t)
  end

let open_ ?compact_min_dead ~path () =
  let compact_min_dead =
    match compact_min_dead with Some v -> v | None -> compact_min_default ()
  in
  let build () =
    let lockfd =
      Unix.openfile (path ^ ".lock")
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o644
    in
    match
      (* Hold the cross-process lock for the whole load: never a torn
         read of a sibling's in-progress compaction. *)
      ignore (Unix.lseek lockfd 0 Unix.SEEK_SET);
      Unix.lockf lockfd Unix.F_LOCK 0;
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.lseek lockfd 0 Unix.SEEK_SET);
          try Unix.lockf lockfd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
        (fun () ->
          let fd = open_writer path in
          if (Unix.fstat fd).Unix.st_size = 0 then
            write_fully fd (header ^ "\n");
          let t =
            {
              path;
              fd;
              lockfd;
              lock = Mutex.create ();
              tables = Hashtbl.create 16;
              answers = Hashtbl.create 16;
              records = 0;
              live = 0;
              read_pos = 0;
              stamp = (-1, -1);
              pending = Buffer.create 4096;
              pending_records = 0;
              pending_keys = Hashtbl.create 16;
              pending_answers = Hashtbl.create 16;
              compact_min_dead;
              skipped = 0;
              hits = Atomic.make 0;
              misses = Atomic.make 0;
              answer_hits = Atomic.make 0;
              appends = Atomic.make 0;
              compactions = Atomic.make 0;
            }
          in
          let ic = open_in_bin path in
          (* A log not ending in a newline ends in a line torn by a
             crashed writer: skip it, and terminate it so our first
             append starts a fresh line. *)
          let len = in_channel_length ic in
          let torn =
            len > 0
            && begin
                 seek_in ic (len - 1);
                 let c = input_char ic in
                 seek_in ic 0;
                 c <> '\n'
               end
          in
          let first = try Some (input_line ic) with End_of_file -> None in
          if first <> Some header then begin
            close_in_noerr ic;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            failwith (Printf.sprintf "%s: not a tiling store (bad header)" path)
          end;
          (try
             while true do
               let line = input_line ic in
               if torn && pos_in ic = len then t.skipped <- t.skipped + 1
               else fold_line t line
             done
           with End_of_file -> close_in_noerr ic);
          if torn then write_fully fd "\n";
          let st = Unix.fstat fd in
          t.read_pos <- st.Unix.st_size;
          t.stamp <- (st.Unix.st_dev, st.Unix.st_ino);
          t)
    with
    | t -> t
    | exception e ->
        (try Unix.close lockfd with Unix.Unix_error _ -> ());
        raise e
  in
  match build () with
  | t ->
      set_gauges t;
      Ok t
  | exception Failure m -> Error m
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

let path t = t.path

let fingerprint ~method_ ~kernel ~n ~cache ~backend ~seed =
  Printf.sprintf "%s|%s|%d|%d:%d:%d|%s|%d" method_
    (String.lowercase_ascii kernel)
    n cache.Tiling_cache.Config.size cache.Tiling_cache.Config.line
    cache.Tiling_cache.Config.assoc backend seed

let find t ~fingerprint key =
  let r =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tables fingerprint with
        | None -> None
        | Some tbl -> Memo.Table.find_opt tbl key)
  in
  (match r with
  | Some _ ->
      Atomic.incr t.hits;
      Metrics.incr m_hits
  | None ->
      Atomic.incr t.misses;
      Metrics.incr m_misses);
  r

let append t ~fingerprint key cost =
  Atomic.incr t.appends;
  Metrics.incr m_appends;
  Mutex.protect t.lock (fun () ->
      let tbl = table_for t fingerprint in
      if not (Memo.Table.mem tbl key) then t.live <- t.live + 1;
      Memo.Table.replace tbl key cost;
      t.records <- t.records + 1;
      t.pending_records <- t.pending_records + 1;
      Hashtbl.replace t.pending_keys (fingerprint, key) ();
      Buffer.add_string t.pending (record_line ~fingerprint key cost);
      Buffer.add_char t.pending '\n')

let find_answer t ~key =
  let r =
    Option.bind (Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.answers key)) unescape
  in
  (match r with
  | Some _ ->
      Atomic.incr t.hits;
      Metrics.incr m_hits;
      Atomic.incr t.answer_hits;
      Metrics.incr m_answer_hits
  | None ->
      Atomic.incr t.misses;
      Metrics.incr m_misses);
  r

let append_answer t ~key json =
  let payload = escape json in
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.answers key) then t.live <- t.live + 1;
      Hashtbl.replace t.answers key payload;
      t.records <- t.records + 1;
      t.pending_records <- t.pending_records + 1;
      Hashtbl.replace t.pending_answers key ();
      Buffer.add_string t.pending (answer_line ~key payload);
      Buffer.add_char t.pending '\n')

let tier t ~fingerprint =
  {
    Memo.find = (fun key -> find t ~fingerprint key);
    Memo.save = (fun key cost -> append t ~fingerprint key cost);
  }

let sync t =
  Mutex.protect t.lock (fun () ->
      flush_locked t ~compact:true;
      set_gauges t)

let refresh t =
  Mutex.protect t.lock (fun () ->
      flush_locked t ~compact:false;
      set_gauges t)

let close t =
  Mutex.protect t.lock (fun () ->
      flush_locked t ~compact:false;
      (try Unix.close t.fd with Unix.Unix_error _ -> ());
      try Unix.close t.lockfd with Unix.Unix_error _ -> ())

let entries t = Mutex.protect t.lock (fun () -> t.live)
let records t = Mutex.protect t.lock (fun () -> t.records)
let fingerprints t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tables)
let answers t = Mutex.protect t.lock (fun () -> Hashtbl.length t.answers)
let hits t = Atomic.get t.hits
let answer_hits t = Atomic.get t.answer_hits
let misses t = Atomic.get t.misses
let appends t = Atomic.get t.appends
let compactions t = Atomic.get t.compactions
let skipped_on_load t = Mutex.protect t.lock (fun () -> t.skipped)
