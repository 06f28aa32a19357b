(* The command-line surface: every subcommand's manual must render.  A
   malformed doc string (an illegal $(...) escape, a duplicated option
   name) only surfaces when cmdliner formats the page, as stderr noise or
   an exception, so each page is rendered with [--help=plain] and must
   leave stderr empty.  The subcommands are read off the top-level page,
   so a new one is covered without editing this file.  An engine the
   simulator does not have, named by flag or by environment, must be
   refused with the accepted names.  Environment variables the simulator
   does not read must not change what a command does. *)

let exe = ref ""

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Run the CLI with [args], [env] bindings prepended to its environment;
   returns (exit code, stdout, stderr). *)
let run ?(env = []) args =
  let out = Filename.temp_file "helix_cli" ".out" in
  let err = Filename.temp_file "helix_cli" ".err" in
  let cmd =
    String.concat " "
      (env @ List.map Filename.quote (!exe :: args))
    ^ " >" ^ Filename.quote out ^ " 2>" ^ Filename.quote err
  in
  let code = Sys.command cmd in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let is_name_char = function 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* Subcommand names from the COMMANDS section of the top-level page:
   entries sit at a 7-space indent, their descriptions deeper. *)
let subcommands page =
  let lines = String.split_on_char '\n' page in
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.trim l = "COMMANDS" then rest else skip rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest ->
        if l <> "" && l.[0] <> ' ' then List.rev acc (* next section *)
        else if String.length l > 7 && String.sub l 0 7 = "       "
                && is_name_char l.[7]
        then
          let entry = String.sub l 7 (String.length l - 7) in
          take (List.hd (String.split_on_char ' ' entry) :: acc) rest
        else take acc rest
  in
  take [] (skip lines)

let check_page args =
  let code, out, err = run (args @ [ "--help=plain" ]) in
  Alcotest.(check string) "stderr" "" err;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "page rendered" true (String.length out > 0)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_refused ?env args =
  let code, _, err = run ?env args in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool)
    ("stderr names legacy|event: " ^ err)
    true
    (contains err "legacy|event")

let engine_tests =
  [
    Alcotest.test_case "HELIX_ENGINE=heap is refused" `Quick (fun () ->
        check_refused ~env:[ "HELIX_ENGINE=heap" ] [ "run"; "164.gzip" ]);
    Alcotest.test_case "--engine heap is refused" `Quick (fun () ->
        check_refused [ "run"; "164.gzip"; "--engine"; "heap" ]);
  ]

let env_tests =
  [
    (* a debug hook once parsed this at start-up and died on a bad value *)
    Alcotest.test_case "HELIX_TRACE_WIN=a-b is ignored" `Quick (fun () ->
        let code, out, err = run ~env:[ "HELIX_TRACE_WIN=a-b" ] [ "list" ] in
        Alcotest.(check string) "stderr" "" err;
        Alcotest.(check int) "exit code" 0 code;
        Alcotest.(check bool) "workloads listed" true (contains out "164.gzip"));
  ]

let () =
  (match Array.to_list Sys.argv with
  | _ :: path :: _ -> exe := path
  | _ -> failwith "usage: test_cli PATH-TO-helix_rc.exe");
  let _, top, _ = run [ "--help=plain" ] in
  let cmds = subcommands top in
  if List.length cmds < 10 then
    failwith "test_cli: could not read the subcommand list";
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "help",
        Alcotest.test_case "top-level page renders" `Quick (fun () ->
            check_page [])
        :: List.map
             (fun c ->
               Alcotest.test_case (c ^ " page renders") `Quick (fun () ->
                   check_page [ c ]))
             cmds );
      ("engine", engine_tests);
      ("environment", env_tests);
    ]
