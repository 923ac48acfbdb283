(** Flight recorder: deterministic checkpoints, crash dumps and run
    manifests.  See the interface for the format contract.

    Serialization is a line-oriented text format:

    {v
    limpetmlir-checkpoint v1
    step 12000
    time 4041800000000000
    meta model TenTusscher
    meta engine batched
    section sv 4096
    3ff0000000000000 8000000000000000 ... (8 tokens per line)
    section ext:Vm 512
    ...
    digest 0f8e...
    v}

    Floats are written as the 16 hex digits of their [Int64] bit
    pattern, so [-0.0], NaN payloads and subnormals round-trip exactly.
    The trailing digest is MD5 over the step, the clock bits and every
    section's name + raw little-endian bit patterns; {!of_string}
    recomputes and compares it, so corruption and truncation surface as
    structured diagnostics rather than silently-wrong physics. *)

type section = { sec_name : string; sec_data : floatarray }

type checkpoint = {
  ck_meta : (string * string) list;
  ck_step : int;
  ck_time : float;
  ck_sections : section list;
}

let version = 1
let magic = "limpetmlir-checkpoint"

let meta (ck : checkpoint) (key : string) : string option =
  List.assoc_opt key ck.ck_meta

let set_meta (ck : checkpoint) (key : string) (v : string) : checkpoint =
  if List.mem_assoc key ck.ck_meta then
    {
      ck with
      ck_meta =
        List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) ck.ck_meta;
    }
  else { ck with ck_meta = ck.ck_meta @ [ (key, v) ] }

(* -- digest ----------------------------------------------------------- *)

(* MD5 over exact bit patterns (metadata excluded: runs reaching the
   same state through different CLI spellings compare digest-equal),
   hashed from one buffer of exactly the digested size. *)
let digest (ck : checkpoint) : string =
  let size =
    List.fold_left
      (fun acc s ->
        acc + String.length s.sec_name + 1 + (8 * Float.Array.length s.sec_data))
      (2 * (4 + 1 + 8))
      ck.ck_sections
  in
  let b = Bytes.create size in
  let put_name pos name =
    let len = String.length name in
    Bytes.blit_string name 0 b pos len;
    Bytes.set b (pos + len) '\000';
    pos + len + 1
  in
  let pos = put_name 0 "step" in
  Bytes.set_int64_le b pos (Int64.of_int ck.ck_step);
  let pos = put_name (pos + 8) "time" in
  Bytes.set_int64_le b pos (Int64.bits_of_float ck.ck_time);
  let (_ : int) =
    List.fold_left
      (fun pos s ->
        let pos = put_name pos s.sec_name and data = s.sec_data in
        for i = 0 to Float.Array.length data - 1 do
          Bytes.set_int64_le b
            (pos + (8 * i))
            (Int64.bits_of_float (Float.Array.get data i))
        done;
        pos + (8 * Float.Array.length data))
      (pos + 8) ck.ck_sections
  in
  Digest.to_hex (Digest.bytes b)

(* -- serialization ---------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

(* the 16 lowercase hex digits of [v]'s bit pattern, appended to [b] *)
let add_hex (b : Buffer.t) (v : float) : unit =
  let bits = Int64.bits_of_float v in
  for k = 0 to 15 do
    Buffer.add_char b
      hex_digits.[Int64.to_int (Int64.shift_right_logical bits (60 - (4 * k)))
                  land 0xf]
  done

let hex_of_float (v : float) : string =
  let b = Buffer.create 16 in
  add_hex b v;
  Buffer.contents b

let float_of_hex (tok : string) : float option =
  if String.length tok <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ tok) with
    | Some bits -> Some (Int64.float_of_bits bits)
    | None -> None

(* The serialization of [ck] with [digest] on its last line, handed to
   [out] one line at a time in a buffer reused for every line, so
   nothing the size of the checkpoint is built. *)
let emit (out : Buffer.t -> unit) ~(digest : string) (ck : checkpoint) : unit
    =
  List.iter
    (fun (k, v) ->
      if k = "" || String.contains k ' ' || String.contains k '\n' then
        invalid_arg "Recorder.to_string: meta keys must be non-empty, space-free";
      if String.contains v '\n' then
        invalid_arg "Recorder.to_string: meta values must be newline-free")
    ck.ck_meta;
  let b = Buffer.create 256 in
  let line fmt =
    Printf.kbprintf
      (fun b ->
        out b;
        Buffer.clear b)
      b fmt
  in
  line "%s v%d\n" magic version;
  line "step %d\n" ck.ck_step;
  line "time %s\n" (hex_of_float ck.ck_time);
  List.iter (fun (k, v) -> line "meta %s %s\n" k v) ck.ck_meta;
  List.iter
    (fun s ->
      let n = Float.Array.length s.sec_data in
      line "section %s %d\n" s.sec_name n;
      for i = 0 to n - 1 do
        add_hex b (Float.Array.get s.sec_data i);
        if i mod 8 = 7 || i = n - 1 then begin
          Buffer.add_char b '\n';
          out b;
          Buffer.clear b
        end
        else Buffer.add_char b ' '
      done)
    ck.ck_sections;
  line "digest %s\n" digest

let to_string (ck : checkpoint) : string =
  let text = Buffer.create 65536 in
  emit (Buffer.add_buffer text) ~digest:(digest ck) ck;
  Buffer.contents text

let err ?(code = "checkpoint-format") fmt =
  Fmt.kstr
    (fun msg -> Error (Easyml.Diag.make ~sev:Easyml.Diag.Error ~code msg))
    fmt

(* Parse and verify the lines [next] yields, split as
   [In_channel.input_line] splits a file; the checkpoint comes back with
   its verified digest. *)
let parse (next : unit -> string option) :
    (checkpoint * string, Easyml.Diag.t) result =
  let ( let* ) r f = Result.bind r f in
  let* header =
    match next () with Some h -> Ok h | None -> err "empty checkpoint"
  in
  let* () =
    if header = Printf.sprintf "%s v%d" magic version then Ok ()
    else if
      String.length header >= String.length magic
      && String.sub header 0 (String.length magic) = magic
    then err "unsupported checkpoint version %S" header
    else err "not a checkpoint file (bad magic %S)" header
  in
  (* state threaded through the line walk *)
  let step = ref None
  and time = ref None
  and metas = ref []
  and sections = ref []
  and stored_digest = ref None in
  (* current section being filled *)
  let cur : (string * floatarray * int ref) option ref = ref None in
  let finish_section () =
    match !cur with
    | None -> Ok ()
    | Some (name, data, filled) ->
        if !filled <> Float.Array.length data then
          err "section %s truncated: %d of %d value(s)" name !filled
            (Float.Array.length data)
        else begin
          sections := { sec_name = name; sec_data = data } :: !sections;
          cur := None;
          Ok ()
        end
  in
  let rec go lineno =
    match next () with
    | None -> (
        let* () = finish_section () in
        match (!step, !time, !stored_digest) with
        | None, _, _ -> err "missing step line"
        | _, None, _ -> err "missing time line"
        | _, _, None -> err "truncated checkpoint: missing digest line"
        | Some step, Some time, Some stored ->
            let ck =
              {
                ck_meta = List.rev !metas;
                ck_step = step;
                ck_time = time;
                ck_sections = List.rev !sections;
              }
            in
            let actual = digest ck in
            if actual <> stored then
              err ~code:"checkpoint-digest"
                "content digest mismatch: file says %s, data hashes to %s"
                stored actual
            else Ok (ck, actual))
    | Some "" -> go (lineno + 1)
    | Some line -> (
        let* () =
          if !stored_digest <> None then
            err "line %d: content after the digest line" lineno
          else Ok ()
        in
        match (!cur, String.split_on_char ' ' line) with
        | Some (name, data, filled), toks ->
            (* inside a section: every token is one bit pattern *)
            let* () =
              List.fold_left
                (fun acc tok ->
                  let* () = acc in
                  if tok = "" then Ok ()
                  else
                    match float_of_hex tok with
                    | None ->
                        err "line %d: bad bit pattern %S in section %s" lineno
                          tok name
                    | Some v ->
                        if !filled >= Float.Array.length data then
                          err "line %d: section %s overflows its declared \
                               length %d"
                            lineno name (Float.Array.length data)
                        else begin
                          Float.Array.set data !filled v;
                          incr filled;
                          Ok ()
                        end)
                (Ok ()) toks
            in
            let* () =
              if !filled = Float.Array.length data then finish_section ()
              else Ok ()
            in
            go (lineno + 1)
        | None, [ "step"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 ->
                step := Some n;
                go (lineno + 1)
            | _ -> err "line %d: bad step %S" lineno n)
        | None, [ "time"; tok ] -> (
            match float_of_hex tok with
            | Some t ->
                time := Some t;
                go (lineno + 1)
            | None -> err "line %d: bad time bit pattern %S" lineno tok)
        | None, "meta" :: k :: v ->
            metas := (k, String.concat " " v) :: !metas;
            go (lineno + 1)
        | None, [ "section"; name; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 ->
                if n = 0 then begin
                  sections :=
                    { sec_name = name; sec_data = Float.Array.create 0 }
                    :: !sections;
                  go (lineno + 1)
                end
                else begin
                  cur := Some (name, Float.Array.create n, ref 0);
                  go (lineno + 1)
                end
            | _ -> err "line %d: bad section length %S" lineno n)
        | None, [ "digest"; d ] ->
            stored_digest := Some d;
            go (lineno + 1)
        | None, _ -> err "line %d: unrecognized line %S" lineno line)
  in
  go 2

let of_string (text : string) : (checkpoint, Easyml.Diag.t) result =
  let pos = ref 0 in
  let next () =
    if !pos >= String.length text then None
    else
      let stop =
        Option.value ~default:(String.length text)
          (String.index_from_opt text !pos '\n')
      in
      let line = String.sub text !pos (stop - !pos) in
      pos := stop + 1;
      Some line
  in
  Result.map fst (parse next)

(* -- file I/O --------------------------------------------------------- *)

let io_err fmt = err ~code:"checkpoint-io" fmt

(* [write], also returning the digest written *)
let write_digest ~(path : string) (ck : checkpoint) : int * string =
  let d = digest ck in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try emit (Buffer.output_buffer oc) ~digest:d ck
   with e ->
     close_out_noerr oc;
     raise e);
  let bytes = pos_out oc in
  close_out oc;
  Sys.rename tmp path;
  (bytes, d)

let write ~(path : string) (ck : checkpoint) : int =
  fst (write_digest ~path ck)

(* [read], also returning the digest verified *)
let read_digest (path : string) : (checkpoint * string, Easyml.Diag.t) result
    =
  match open_in_bin path with
  | exception Sys_error msg -> io_err "%s" msg
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> parse (fun () -> In_channel.input_line ic))
      with
      | r -> r
      | exception Sys_error msg -> io_err "%s" msg)

let read (path : string) : (checkpoint, Easyml.Diag.t) result =
  Result.map fst (read_digest path)

(* -- periodic writer -------------------------------------------------- *)

type writer = {
  w_dir : string;
  w_stride : int;
  w_keep : int;
  w_extra : (string * string) list;
  mutable w_files : string list;  (** newest first *)
  mutable w_last_step : int;
  mutable w_writes : int;
  mutable w_bytes : int;
  mutable w_ms : float;
  mutable w_verify_failures : int;
}

let rec mkdir_p (dir : string) : unit =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create_writer ?(keep = 3) ?(extra = []) ~(dir : string)
    ~(stride : int) () : writer =
  if stride <= 0 then invalid_arg "Recorder.create_writer: stride must be > 0";
  if keep <= 0 then invalid_arg "Recorder.create_writer: keep must be > 0";
  mkdir_p dir;
  {
    w_dir = dir;
    w_stride = stride;
    w_keep = keep;
    w_extra = extra;
    w_files = [];
    w_last_step = -1;
    w_writes = 0;
    w_bytes = 0;
    w_ms = 0.0;
    w_verify_failures = 0;
  }

let due (w : writer) ~(step : int) : bool = step > 0 && step mod w.w_stride = 0

let record (w : writer) (ck : checkpoint) : string =
  (* run-level metadata first, so self-description survives captures that
     know nothing about the CLI invocation; the capture's own keys win on
     collision (set_meta replaces in place) *)
  let ck =
    List.fold_left
      (fun ck (k, v) -> if meta ck k = None then set_meta ck k v else ck)
      ck w.w_extra
  in
  let path =
    Filename.concat w.w_dir (Printf.sprintf "checkpoint-%012d.ckpt" ck.ck_step)
  in
  let t0 = Unix.gettimeofday () in
  let bytes, written = write_digest ~path ck in
  (match read_digest path with
  | Ok (_, verified) when String.equal verified written -> ()
  | Ok _ | Error _ -> w.w_verify_failures <- w.w_verify_failures + 1);
  (* The digest buffers, the re-read copy and usually the capture are
     garbage now.  In a run whose steps allocate nothing, checkpoints
     are its only major-heap garbage, and a collector paced by
     allocation would keep several of them in the heap at once, so the
     run's peak RSS grows; finishing the cycle here frees them. *)
  Gc.major ();
  w.w_ms <- w.w_ms +. ((Unix.gettimeofday () -. t0) *. 1e3);
  w.w_files <- path :: List.filter (fun p -> p <> path) w.w_files;
  w.w_last_step <- ck.ck_step;
  w.w_writes <- w.w_writes + 1;
  w.w_bytes <- w.w_bytes + bytes;
  (* rotation: keep the newest K files *)
  let rec drop i = function
    | [] -> []
    | p :: rest when i >= w.w_keep ->
        (try Sys.remove p with Sys_error _ -> ());
        drop (i + 1) rest
    | p :: rest -> p :: drop (i + 1) rest
  in
  w.w_files <- drop 0 w.w_files;
  path

let last (w : writer) : string option =
  match w.w_files with [] -> None | p :: _ -> Some p

let writer_dir (w : writer) : string = w.w_dir

let stats (w : writer) : Export.checkpoint_stats =
  {
    Export.cp_last_step = w.w_last_step;
    cp_writes = w.w_writes;
    cp_bytes = w.w_bytes;
    cp_write_ms = w.w_ms;
    cp_verify_failures = w.w_verify_failures;
  }

(* -- crash dumps and manifests ---------------------------------------- *)

let write_file (path : string) (text : string) : unit =
  let oc = open_out_bin path in
  output_string oc text;
  if text = "" || text.[String.length text - 1] <> '\n' then
    output_char oc '\n';
  close_out oc

let events_json (events : Tracer.event list) : Json.t =
  (* Chrome trace-event shape, so the tail loads in Perfetto directly *)
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun (e : Tracer.event) ->
               Json.Obj
                 [
                   ("name", Json.Str e.Tracer.ev_name);
                   ( "ph",
                     Json.Str
                       (match e.Tracer.ev_kind with
                       | Tracer.Begin -> "B"
                       | Tracer.End -> "E") );
                   ("ts", Json.Num e.Tracer.ev_ts);
                   ("pid", Json.Num 1.0);
                   ("tid", Json.Num (float_of_int e.Tracer.ev_dom));
                 ])
             events) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let crash_dump ~(dir : string) ?last_checkpoint ?(events = []) ?health
    ~(report : Json.t) () : string =
  let bundle = Filename.concat dir "crash" in
  mkdir_p bundle;
  write_file (Filename.concat bundle "report.json") (Json.to_string report);
  write_file
    (Filename.concat bundle "trace_tail.json")
    (Json.to_string (events_json events));
  (match health with
  | Some text -> write_file (Filename.concat bundle "health.txt") text
  | None -> ());
  (match last_checkpoint with
  | Some src -> (
      (* best-effort copy: a vanished checkpoint must not mask the trip *)
      try
        let ic = open_in_bin src in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        write_file (Filename.concat bundle (Filename.basename src)) text
      with Sys_error _ | End_of_file -> ())
  | None -> ());
  bundle

let write_manifest ~(dir : string) (j : Json.t) : string =
  mkdir_p dir;
  let path = Filename.concat dir "manifest.json" in
  write_file path (Json.to_string j);
  path
