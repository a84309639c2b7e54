// The traced run's step-by-step build. Program::Build is one call, so to see
// where set-up time goes the traced run drives the same pipeline through the
// public calls — CompileToIr, SpecializeModule, RunPipeline + VerifyModule,
// GenerateObject + EmitDescriptors, the Vm constructor, LinkAndLoad and
// MultiverseRuntime::Attach — with a span around each, and checks that the
// text it produces is byte-identical to Program::Build's.
#include "perfbench/bench.h"
#include "src/codegen/codegen.h"
#include "src/core/descriptors.h"
#include "src/core/runtime.h"
#include "src/core/specializer.h"
#include "src/frontend/frontend.h"
#include "src/obj/linker.h"
#include "src/opt/passes.h"

namespace pb {
namespace {

double IrInstructions(const mv::Module& module) {
  size_t count = 0;
  for (const mv::Function& fn : module.functions) {
    for (const mv::BasicBlock& block : fn.blocks) {
      count += block.instrs.size();
    }
  }
  return static_cast<double>(count);
}

}  // namespace

void BuildStepwise(const Recipe& recipe, Rep* rep) {
  const mv::BuildOptions& options = recipe.options;
  std::vector<mv::ObjectFile> objects;
  for (const mv::ProgramSource& src : recipe.sources) {
    Result<mv::Module> module = [&] {
      Span span("frontend");
      mv::DiagnosticSink diag;
      return mv::CompileToIr(src.source, src.name, options.frontend, &diag);
    }();
    if (!rep->Check(module, "compile " + recipe.name)) {
      return;
    }
    rep->Count("frontend.ir_insns", IrInstructions(*module));
    if (options.specialize) {
      Span span("specializer");
      Result<mv::SpecializeStats> stats = mv::SpecializeModule(&*module, options.specializer);
      span.Stop();
      if (!rep->Check(stats, "specialize " + recipe.name)) {
        return;
      }
      rep->Count("specializer.variants_generated", static_cast<double>(stats->variants_generated));
      rep->Count("specializer.variants_kept", static_cast<double>(stats->variants_kept));
    }
    {
      Span span("opt");
      for (mv::Function& fn : module->functions) {
        mv::RunPipeline(fn, *module);
      }
      const Status verified = mv::VerifyModule(*module);
      span.Stop();
      if (!rep->Check(verified, "verify " + recipe.name)) {
        return;
      }
    }
    rep->Count("opt.ir_insns", IrInstructions(*module));
    mv::ObjectFile obj;
    obj.name = src.name;
    {
      Span span("codegen");
      Result<mv::CodegenInfo> info = mv::GenerateObject(*module, &obj);
      const Status emitted =
          info.ok() ? mv::EmitDescriptors(*module, *info, &obj) : info.status();
      span.Stop();
      if (!rep->Check(emitted, "codegen " + recipe.name)) {
        return;
      }
    }
    for (const mv::Section& section : obj.sections) {
      if (section.is_code) {
        rep->Count("codegen.text_bytes", static_cast<double>(section.data.size()));
      } else if (section.name.rfind(".mv.", 0) == 0) {
        rep->Count("codegen.descriptor_bytes", static_cast<double>(section.data.size()));
      }
    }
    objects.push_back(std::move(obj));
  }

  std::unique_ptr<mv::Vm> vm = [&] {
    Span span("vm_alloc");
    return std::make_unique<mv::Vm>(options.vm_memory, options.vm_cores);
  }();
  vm->set_hypervisor_guest(options.hypervisor_guest);
  Result<mv::Image> image = [&] {
    Span span("link");
    return mv::LinkAndLoad(objects, options.link, vm.get());
  }();
  if (!rep->Check(image, "link " + recipe.name)) {
    return;
  }
  Result<mv::MultiverseRuntime> runtime = [&] {
    Span span("attach");
    return mv::MultiverseRuntime::Attach(vm.get(), *image, options.attach);
  }();
  if (!rep->Check(runtime, "attach " + recipe.name)) {
    return;
  }
  rep->Count("attach.callsites", static_cast<double>(runtime->table().callsites.size()));

  // The same recipe through Program::Build: the text must be byte-identical.
  Result<std::unique_ptr<Program>> reference = [&] {
    Span span("program_build_reference");
    return Program::Build(recipe.sources, options);
  }();
  if (!rep->Check(reference, "Program::Build " + recipe.name)) {
    return;
  }
  std::vector<uint8_t> text(image->text_size);
  const bool read = vm->memory().ReadRaw(image->text_base, text.data(), text.size()).ok();
  rep->Check(read && image->text_base == (*reference)->image().text_base &&
                 text == TextBytes(**reference),
             "step-by-step text byte-identical to Program::Build (" + recipe.name + ")");
}

}  // namespace pb
