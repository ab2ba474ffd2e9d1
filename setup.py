"""Build script: compiles the optional C kernel ``src/bsp/_ckernel.c``.

The library has no Python API; ``bsp._kernel_c`` loads it with ctypes.
The package works without it (``bsp.kernel`` falls back to the
pure-Python twin), so a failed compile only prints a warning.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, PlatformError


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except (CCompilerError, PlatformError) as exc:
            self.warn(f"C kernel not built, the pure-Python kernel will be used: {exc}")


setup(
    ext_modules=[
        Extension("bsp._ckernel", ["src/bsp/_ckernel.c"], extra_compile_args=["-std=c99", "-O2"])
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
