fn main() -> std::process::ExitCode {
    rsched_benchmark::cli::main()
}
