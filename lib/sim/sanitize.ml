let armed =
  match Sys.getenv_opt "NYX_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false
