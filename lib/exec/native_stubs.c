/* dlopen/dlsym/dlclose bindings, the one trampoline that calls a
 * JIT-compiled kernel, and the probe of the host's vector ISA.
 *
 * Kernels are compiled by Exec.Native from C emitted by
 * Codegen.C_backend and expose the packed ABI
 *
 *     void limpet_<name>(const int64_t *ia, const double *fa,
 *                        double *const *ma);
 *
 * The trampoline hands the kernel raw pointers into OCaml heap blocks:
 * floatarray (Double_array_tag) data for the scalar-float argument pack
 * and for every memref.  This is safe because under OCaml 5's
 * stop-the-world minor collector no block moves while this domain is
 * executing non-polling C code, and the kernel never calls back into
 * the runtime or allocates. */

#include <dlfcn.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define MAX_IARGS 64
#define MAX_MARGS 1024

typedef void (*limpet_kernel)(const int64_t *ia, const double *fa,
                              double *const *ma);

/* The compiler flag for the widest vector ISA this host runs:
 * "-mavx512f", else "-mavx2", else "" (and "" off x86-64).  The
 * compiler's CPUID probe also checks that the OS saves the registers. */
CAMLprim value limpet_native_isa_flag(value unit)
{
  (void)unit;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return caml_copy_string("-mavx512f");
  if (__builtin_cpu_supports("avx2")) return caml_copy_string("-mavx2");
#endif
  return caml_copy_string("");
}

CAMLprim value limpet_native_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *h;
  dlerror();
  h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value limpet_native_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *fn;
  dlerror();
  fn = dlsym((void *)Nativeint_val(vhandle), String_val(vname));
  if (fn == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlsym failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value limpet_native_dlclose(value vhandle)
{
  (void)dlclose((void *)Nativeint_val(vhandle));
  return Val_unit;
}

/* call (fn : nativeint) (ia : int array) (fa : floatarray)
 *      (ma : floatarray array) */
CAMLprim value limpet_native_call(value vfn, value vi, value vf, value vm)
{
  int64_t ia[MAX_IARGS];
  double *ma[MAX_MARGS];
  mlsize_t ni = Wosize_val(vi);
  mlsize_t nm = Wosize_val(vm);
  mlsize_t k;

  if (ni > MAX_IARGS) caml_failwith("Native.call: too many int args");
  if (nm > MAX_MARGS) caml_failwith("Native.call: too many memref args");
  for (k = 0; k < ni; k++) ia[k] = (int64_t)Long_val(Field(vi, k));
  for (k = 0; k < nm; k++) ma[k] = (double *)Bp_val(Field(vm, k));

  ((limpet_kernel)Nativeint_val(vfn))(ia, (const double *)Bp_val(vf), ma);
  return Val_unit;
}
