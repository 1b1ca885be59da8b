#include "cellsim/libspe2.hpp"

#include "cellsim/errors.hpp"
#include "cellsim/spu.hpp"

namespace cellsim::spe2 {

SpeContext::SpeContext(Spe& spe) : spe_(spe) {
  bool expected = false;
  if (!spe_.busy().compare_exchange_strong(expected, true)) {
    throw ContextFault("SPE " + spe_.name() +
                       " already has a context bound");
  }
}

SpeContext::~SpeContext() { spe_.busy().store(false); }

int SpeContext::run(const spe_program_handle_t& program, std::uint64_t argp,
                    std::uint64_t envp, spe_stop_info_t* stop_info) {
  if (program.entry == nullptr) {
    throw ContextFault("spe_context_run: program has no entry point");
  }
  if (spu::bound()) {
    throw ContextFault(
        "spe_context_run called from a thread already running an SPE program");
  }

  // "Load the image": the load overwrites whatever was resident, then text
  // and stack are charged against the local store, as the real loader does
  // when copying the embedded executable into the LS.
  LsAllocator& alloc = spe_.allocator();
  alloc.reset();
  const LsAddr text = alloc.reserve_segment(
      std::string("text:") + (program.name ? program.name : "?"),
      program.text_bytes == 0 ? 1024 : program.text_bytes);
  const LsAddr stack =
      alloc.reserve_segment("stack", kDefaultSpeStackBytes, 16);
  (void)text;
  (void)stack;

  spu::bind(spu::SpuEnv{&spe_, &spe_.cost(), spe_.physical_id()});
  int code = 0;
  try {
    code = program.entry(spe_.physical_id(), argp, envp);
  } catch (...) {
    spu::unbind();
    throw;
  }
  spu::unbind();
  if (stop_info != nullptr) stop_info->exit_code = code;
  ran_ = true;
  return code;
}

SpeContext* spe_context_create(Spe& spe) { return new SpeContext(spe); }

int spe_context_run(SpeContext* ctx, const spe_program_handle_t* program,
                    std::uint64_t argp, std::uint64_t envp,
                    spe_stop_info_t* stop_info) {
  if (ctx == nullptr || program == nullptr) {
    throw ContextFault("spe_context_run: null context or program");
  }
  return ctx->run(*program, argp, envp, stop_info);
}

void spe_context_destroy(SpeContext* ctx) { delete ctx; }

int spe_in_mbox_write(SpeContext* ctx, const std::uint32_t* data, int count,
                      simtime::SimTime stamp) {
  if (ctx == nullptr) throw ContextFault("spe_in_mbox_write: null context");
  for (int i = 0; i < count; ++i) {
    ctx->spe().inbound_mailbox().push_blocking(data[i], stamp);
  }
  return count;
}

int spe_out_mbox_read(SpeContext* ctx, std::uint32_t* data, int count,
                      simtime::SimTime* latest_stamp) {
  if (ctx == nullptr) throw ContextFault("spe_out_mbox_read: null context");
  int n = 0;
  while (n < count) {
    auto entry = ctx->spe().outbound_mailbox().try_pop();
    if (!entry) break;
    data[n++] = entry->value;
    if (latest_stamp != nullptr) *latest_stamp = entry->stamp;
  }
  return n;
}

int spe_out_mbox_status(SpeContext* ctx) {
  if (ctx == nullptr) throw ContextFault("spe_out_mbox_status: null context");
  return static_cast<int>(ctx->spe().outbound_mailbox().count());
}

void* spe_ls_area_get(SpeContext* ctx) {
  if (ctx == nullptr) throw ContextFault("spe_ls_area_get: null context");
  return ctx->ls_area();
}

}  // namespace cellsim::spe2
