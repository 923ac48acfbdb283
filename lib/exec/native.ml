(* Runtime C compilation, the persistent kernel store, and dynamic
   loading (see native.mli). *)

type toolchain = { cc : string; id : string }

type lib = { path : string; handle : nativeint }

type origin = Disk | Compiled of float

let so_path (l : lib) = l.path

(* glibc computes these to within an ULP or so, not correctly rounded;
   cc folds a call with arguments it can prove constant (outright, along
   one arm of a select, or through an unrolled loop) with correctly
   rounded MPFR instead, so each gets -fno-builtin-<f>. *)
let libm_calls =
  [ "exp"; "expm1"; "log"; "log1p"; "log10"; "log2"; "cbrt"; "sin"; "cos";
    "tan"; "tanh"; "sinh"; "cosh"; "asin"; "acos"; "atan"; "pow"; "atan2";
    "hypot" ]

external isa_probe : unit -> string = "limpet_native_isa_flag"

let isa_flag = match isa_probe () with "" -> None | f -> Some f

let flags =
  [ "-O3"; "-shared"; "-fPIC"; "-ffp-contract=off"; "-fno-fast-math" ]
  @ List.map (fun f -> "-fno-builtin-" ^ f) libm_calls
  @ Option.to_list isa_flag

let flags_id = String.concat " " flags

exception
  Compile_error of { cc : string; file : string; status : int; log : string }

external dl_open : string -> nativeint = "limpet_native_dlopen"
external dl_sym : nativeint -> string -> nativeint = "limpet_native_dlsym"
external dl_close : nativeint -> unit = "limpet_native_dlclose"

external call_kernel : nativeint -> int array -> floatarray -> floatarray array -> unit
  = "limpet_native_call"

let _ = dl_close (* dlclose is deliberately never called on cached libs:
                    outstanding bound closures must stay valid *)

(* -- toolchain probe ------------------------------------------------- *)

let executable (p : string) : bool =
  Sys.file_exists p
  && (not (Sys.is_directory p))
  && try Unix.access p [ Unix.X_OK ]; true with _ -> false

let find_tool (name : string) : string option =
  if String.contains name '/' then if executable name then Some name else None
  else
    let path = Option.value ~default:"" (Sys.getenv_opt "PATH") in
    String.split_on_char ':' path
    |> List.find_map (fun d ->
           if d = "" then None
           else
             let p = Filename.concat d name in
             if executable p then Some p else None)

let version_line (cc : string) : string =
  try
    let ic =
      Unix.open_process_in (Filename.quote cc ^ " --version 2>/dev/null")
    in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> ""

let mk_toolchain (path : string) : toolchain =
  let v = version_line path in
  { cc = path; id = (if v = "" then path else path ^ " | " ^ v) }

let probe () : toolchain option =
  match Sys.getenv_opt "LIMPET_CC" with
  | Some cc when String.trim cc <> "" ->
      (* explicit override: a broken value means "unavailable", it does
         not fall back to other compilers *)
      Option.map mk_toolchain (find_tool (String.trim cc))
  | _ ->
      Option.map mk_toolchain
        (List.find_map find_tool [ "cc"; "gcc"; "clang" ])

let probed : toolchain option Lazy.t = lazy (probe ())

(* test hook: [Some forced] overrides the probe inside with_toolchain *)
let forced : toolchain option option ref = ref None

let toolchain () : toolchain option =
  match !forced with Some tc -> tc | None -> Lazy.force probed

let available () : bool = toolchain () <> None

let with_toolchain (tc : toolchain option) (f : unit -> 'a) : 'a =
  let saved = !forced in
  forced := Some tc;
  Fun.protect ~finally:(fun () -> forced := saved) f

(* -- files ----------------------------------------------------------- *)

let read_file (path : string) : string option =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let write_file (path : string) (s : string) : unit =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let remove (path : string) : unit = try Sys.remove path with Sys_error _ -> ()

let read_log (path : string) : string =
  match read_file path with
  | Some s -> String.sub s 0 (min (String.length s) 8192)
  | None -> ""

(* -- store directories ----------------------------------------------- *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The per-process directory: the store's fallback root, removed at
   exit.  Call with [lock] held. *)
let session_dir : string option ref = ref None

let session () : string =
  match !session_dir with
  | Some d -> d
  | None ->
      let base = Filename.get_temp_dir_name () in
      let rec mk n =
        let d =
          Filename.concat base
            (Printf.sprintf "limpetmlir-%d-%d" (Unix.getpid ()) n)
        in
        match Unix.mkdir d 0o700 with
        | () -> d
        | exception Unix.Unix_error (Unix.EEXIST, _, _) -> mk (n + 1)
      in
      let d = mk 0 in
      session_dir := Some d;
      at_exit (fun () ->
          (try
             Array.iter
               (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
               (Sys.readdir d)
           with _ -> ());
          (try Unix.rmdir d with _ -> ());
          session_dir := None);
      d

let rec mkdir_p (d : string) : unit =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Loading a library from a directory another user can write amounts to
   running their code: only a directory this uid owns, with no group or
   world write bit, may hold the store. *)
let private_dir (d : string) : bool =
  match Unix.stat d with
  | st ->
      st.Unix.st_kind = Unix.S_DIR
      && st.Unix.st_uid = Unix.geteuid ()
      && st.Unix.st_perm land 0o022 = 0
  | exception Unix.Unix_error _ -> false

let warned_unsafe = ref false

(* The store directory [d], created if missing, when it and the [parents]
   it lives in are private.  A store that cannot be created falls back
   quietly to the per-process directory (the old behaviour); one that
   exists but is not private falls back with one warning. *)
let open_store (parents : string list) (d : string) : string =
  match mkdir_p d with
  | exception (Unix.Unix_error _ | Sys_error _) -> session ()
  | () when List.for_all private_dir (parents @ [ d ]) -> d
  | () ->
      if not !warned_unsafe then begin
        warned_unsafe := true;
        prerr_endline
          (Easyml.Diag.to_string ~file:d
             (Easyml.Diag.makef ~code:"native-cache-unsafe"
                "native kernel store is not owned by uid %d or is group- \
                 or world-writable; compiling into a per-process \
                 directory instead"
                (Unix.geteuid ())))
      end;
      session ()

(* $XDG_CACHE_HOME, else $HOME/.cache; a relative value is taken
   relative to the working directory. *)
let cache_home () : string option =
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  match (Sys.getenv_opt "XDG_CACHE_HOME", Sys.getenv_opt "HOME") with
  | Some d, _ when d <> "" -> Some (abs d)
  | _, Some h when h <> "" -> Some (Filename.concat (abs h) ".cache")
  | _ -> None

let default_store : string option ref = ref None

(* test hook: [Some d] replaces the default store inside with_store *)
let forced_store : string option option ref = ref None

let store () : string =
  locked (fun () ->
      match !forced_store with
      | Some (Some d) -> open_store [] d
      | Some None -> session ()
      | None -> (
          match !default_store with
          | Some d -> d
          | None ->
              let d =
                match cache_home () with
                | None -> session ()
                | Some home ->
                    let top = Filename.concat home "limpetmlir" in
                    open_store [ top ] (Filename.concat top "native")
              in
              default_store := Some d;
              d))

let with_store (d : string option) (f : unit -> 'a) : 'a =
  let saved = !forced_store in
  forced_store := Some d;
  Fun.protect ~finally:(fun () -> forced_store := saved) f

(* -- store entries --------------------------------------------------- *)

(* An entry is named by its key, a 32-hex-digit MD5, and holds either a
   published library ([.so] plus [.md5], the hex digest of its bytes)
   or a failed compile kept for post-mortems ([.c] plus [.log]). *)

let capacity = 256

let key (tc : toolchain) (src : string) : string =
  Digest.to_hex (Digest.string (String.concat "\000" [ tc.id; flags_id; src ]))

let file (d : string) (k : string) (ext : string) : string =
  Filename.concat d (k ^ ext)

(* library first, so a concurrent reader sees a plain miss *)
let drop (d : string) (k : string) : unit =
  List.iter (fun ext -> remove (file d k ext)) [ ".so"; ".md5"; ".c"; ".log" ]

(* The published library for [k], loaded, if its bytes still match the
   digest recorded at publish time; anything else there is deleted. *)
let load (d : string) (k : string) : lib option =
  let so = file d k ".so" in
  if not (Sys.file_exists so) then None
  else
    let intact =
      match read_file (file d k ".md5") with
      | Some sum -> (
          try String.trim sum = Digest.to_hex (Digest.file so)
          with Sys_error _ -> false)
      | None -> false
    in
    match if intact then Some (dl_open so) else None with
    | Some handle ->
        (* a hit makes the entry the most recently used *)
        (try Unix.utimes so 0.0 0.0 with Unix.Unix_error _ -> ());
        Some { path = so; handle }
    | None | (exception Failure _) ->
        drop d k;
        None

(* Files a killed process left mid-compile, removed once this old. *)
let stale_tmp_s = 3600.0

(* Keep at most [capacity] entries, dropping the least recently used by
   mtime; [keep] (the entry just published) always stays. *)
let evict (d : string) ~(keep : string) : unit =
  let now = Unix.gettimeofday () in
  let entries = Hashtbl.create 64 in
  (try
     Array.iter
       (fun f ->
         let p = Filename.concat d f in
         match Unix.stat p with
         | exception Unix.Unix_error _ -> ()
         | st ->
             let mtime = st.Unix.st_mtime in
             if String.starts_with ~prefix:".tmp-" f then begin
               if now -. mtime > stale_tmp_s then remove p
             end
             else if String.index_opt f '.' = Some 32 then
               let k = String.sub f 0 32 in
               match Hashtbl.find_opt entries k with
               | Some t when t >= mtime -> ()
               | _ -> Hashtbl.replace entries k mtime)
       (Sys.readdir d)
   with Sys_error _ -> ());
  let excess = Hashtbl.length entries - capacity in
  if excess > 0 then
    Hashtbl.fold (fun k t acc -> if k = keep then acc else (t, k) :: acc) entries []
    |> List.sort compare
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun (_, k) -> drop d k)

let tmp_seq = Atomic.make 0

(* Load [k] from [d], or compile it into a uniquely named temporary in
   [d] and publish it by [rename]: the digest record first, the library
   last, so an entry is visible only once complete, and a second
   publisher of the same key writes the same bytes (the source reaches
   the compiler on stdin, so no file name is embedded in the object). *)
let compile_in (tc : toolchain) (d : string) (k : string) (src : string) :
    lib * origin =
  match Obs.Tracer.with_span "native.load" (fun () -> load d k) with
  | Some l -> (l, Disk)
  | None ->
      let tmp =
        Filename.concat d
          (Printf.sprintf ".tmp-%d-%d-%s" (Unix.getpid ())
             (Atomic.fetch_and_add tmp_seq 1)
             k)
      in
      let c_tmp = tmp ^ ".c" and so_tmp = tmp ^ ".so" and log_tmp = tmp ^ ".log" in
      write_file c_tmp src;
      let cmd =
        String.concat " "
          ((Filename.quote tc.cc :: flags)
          @ [ "-o"; Filename.quote so_tmp; "-x"; "c"; "-"; "-lm" ])
        ^ " < " ^ Filename.quote c_tmp ^ " 2> " ^ Filename.quote log_tmp
      in
      let t0 = Unix.gettimeofday () in
      let status = Obs.Tracer.with_span "compile_c" (fun () -> Sys.command cmd) in
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      (* a failure keeps its translation unit and log as an entry of the
         store, never a library *)
      let fail status log =
        remove so_tmp;
        remove log_tmp;
        write_file (file d k ".log") log;
        Unix.rename c_tmp (file d k ".c");
        evict d ~keep:k;
        raise (Compile_error { cc = tc.cc; file = file d k ".c"; status; log })
      in
      if status <> 0 then fail status (read_log log_tmp)
      else
        match Digest.file so_tmp with
        | exception Sys_error _ ->
            fail 0 (read_log log_tmp ^ "no shared object was produced")
        | digest -> (
            match
              Obs.Tracer.with_span "native.load" (fun () -> dl_open so_tmp)
            with
            | exception Failure msg -> fail 0 msg
            | handle ->
                write_file (tmp ^ ".md5") (Digest.to_hex digest ^ "\n");
                Unix.rename (tmp ^ ".md5") (file d k ".md5");
                Unix.rename so_tmp (file d k ".so");
                List.iter remove [ c_tmp; log_tmp; file d k ".c"; file d k ".log" ];
                evict d ~keep:k;
                ({ path = file d k ".so"; handle }, Compiled ms))

let compile (tc : toolchain) ~(src : string) : lib * origin =
  let k = key tc src in
  let d = store () in
  try compile_in tc d k src
  with (Sys_error _ | Unix.Unix_error _) when d <> locked session ->
    (* the store went away or filled up under us: this process still
       gets its library *)
    compile_in tc (locked session) k src

(* -- argument marshalling -------------------------------------------- *)

type cls = CI | CF | CM

let bind (l : lib) ~(symbol : string) ~(params : Ir.Ty.t list) :
    Rt.v array -> Rt.v array =
  let fn = dl_sym l.handle symbol in
  let classes =
    Array.of_list
      (List.map
         (fun (t : Ir.Ty.t) ->
           match t with
           | Ir.Ty.I64 | Ir.Ty.I1 -> CI
           | Ir.Ty.F64 -> CF
           | Ir.Ty.Memref -> CM
           | Ir.Ty.Vec _ ->
               invalid_arg ("Native.bind: vector parameter for " ^ symbol))
         params)
  in
  (* each argument's slot in its class's pack *)
  let ni = ref 0 and nf = ref 0 and nm = ref 0 in
  let slots =
    Array.map
      (fun c ->
        let n = match c with CI -> ni | CF -> nf | CM -> nm in
        incr n;
        !n - 1)
      classes
  in
  (* preallocated packs: one bound closure per thread, like every engine;
     a call fills them in place and allocates nothing *)
  let ia = Array.make !ni 0 in
  let fa = Float.Array.make !nf 0.0 in
  let ma = Array.make !nm (Float.Array.create 0) in
  fun (args : Rt.v array) ->
    if Array.length args <> Array.length classes then
      invalid_arg ("Native: arity mismatch calling " ^ symbol);
    for k = 0 to Array.length args - 1 do
      let s = slots.(k) in
      match (classes.(k), args.(k)) with
      | CI, Rt.I n -> ia.(s) <- n
      | CI, Rt.B b -> ia.(s) <- Bool.to_int b
      | CF, Rt.F x -> Float.Array.set fa s x
      | CM, Rt.M m -> ma.(s) <- m
      | _, a ->
          invalid_arg
            (Printf.sprintf "Native: argument %d of %s has type %s" k symbol
               (Rt.type_name a))
    done;
    call_kernel fn ia fa ma;
    [||]
